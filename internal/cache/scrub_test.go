package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cgra/internal/chaos"
	"cgra/internal/obs"
)

// newDiskStore builds a store over dir with the background scrubber off,
// so tests drive ScrubNow deterministically.
func newDiskStore(t *testing.T, dir string, o Options) *Store {
	t.Helper()
	o.Dir = dir
	o.ScrubInterval = -1
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestScrubRepairsEachCorruptionMode proves one scrubber pass quarantines
// every injected corruption mode — torn commit, post-write bit-rot, manual
// truncation, stomped magic — and that the store serves again after a
// recompile (Put).
func TestScrubRepairsEachCorruptionMode(t *testing.T) {
	key, art := compileArtifact(t, "gcd")
	modes := map[string]func(t *testing.T, dir string) *Store{
		"torn_commit": func(t *testing.T, dir string) *Store {
			inj := chaos.New(chaos.Plan{Seed: 11, TornWriteEvery: 1}, nil, nil)
			s := newDiskStore(t, dir, Options{FS: inj})
			mustPut(t, s, key, art)
			inj.Disarm()
			return s
		},
		"bit_rot": func(t *testing.T, dir string) *Store {
			inj := chaos.New(chaos.Plan{Seed: 11, BitRotEvery: 1}, nil, nil)
			s := newDiskStore(t, dir, Options{FS: inj})
			mustPut(t, s, key, art)
			inj.Disarm()
			return s
		},
		"truncated": func(t *testing.T, dir string) *Store {
			s := newDiskStore(t, dir, Options{})
			mustPut(t, s, key, art)
			data, err := os.ReadFile(s.Path(key))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.Path(key), data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			return s
		},
		"bad_magic": func(t *testing.T, dir string) *Store {
			s := newDiskStore(t, dir, Options{})
			mustPut(t, s, key, art)
			data, err := os.ReadFile(s.Path(key))
			if err != nil {
				t.Fatal(err)
			}
			data[0] ^= 0xFF
			if err := os.WriteFile(s.Path(key), data, 0o644); err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, corrupt := range modes {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := corrupt(t, dir)
			rep := s.ScrubNow()
			if rep.Quarantined != 1 {
				t.Fatalf("scrub quarantined %d entries, want 1 (%s)", rep.Quarantined, rep)
			}
			if _, err := os.Stat(s.Path(key) + ".quarantined"); err != nil {
				t.Fatalf("corrupt entry not moved aside: %v", err)
			}
			// The bad entry must be gone from the index and the disk.
			if s.DiskEntries() != 0 {
				t.Fatalf("disk index still holds %d entries", s.DiskEntries())
			}
			// A recompile (Put) reinstalls; the next pass is clean and a
			// fresh store serves the entry from disk.
			mustPut(t, s, key, art)
			if rep := s.ScrubNow(); !rep.Clean() || rep.Checked != 1 {
				t.Fatalf("post-repair pass not clean: %s", rep)
			}
			s2 := newDiskStore(t, dir, Options{})
			if _, src, ok := s2.Get(key); !ok || src != SourceDisk {
				t.Fatalf("repaired entry not served from disk (ok=%t src=%q)", ok, src)
			}
		})
	}
}

// TestScrubReconcilesIndex proves a scrub pass indexes entries that
// appeared behind the store's back and drops entries whose files vanished.
func TestScrubReconcilesIndex(t *testing.T) {
	dir := t.TempDir()
	key, art := compileArtifact(t, "gcd")
	seed := newDiskStore(t, dir, Options{})
	mustPut(t, seed, key, art)
	// A second store over the same dir, then mutate the dir directly.
	s := newDiskStore(t, dir, Options{})
	if s.DiskEntries() != 1 {
		t.Fatalf("startup index holds %d entries, want 1", s.DiskEntries())
	}
	if err := os.Remove(s.Path(key)); err != nil {
		t.Fatal(err)
	}
	if rep := s.ScrubNow(); rep.Checked != 0 {
		t.Fatalf("scrub checked %d entries after rm, want 0", rep.Checked)
	}
	if s.DiskEntries() != 0 {
		t.Fatalf("index still holds %d entries after file vanished", s.DiskEntries())
	}
	// Reinstall behind the store's back (what another writer would do).
	mustPut(t, seed, key, art)
	if rep := s.ScrubNow(); rep.Checked != 1 {
		t.Fatalf("scrub checked %d entries after reinstall, want 1", rep.Checked)
	}
	if s.DiskEntries() != 1 {
		t.Fatalf("index holds %d entries after reconcile, want 1", s.DiskEntries())
	}
}

// TestDiskCapEvictsLRU proves the disk tier stays under its byte cap by
// evicting least-recently-used entries, and that recency is refreshed by
// Get.
func TestDiskCapEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	_, art := compileArtifact(t, "gcd")
	probe := newDiskStore(t, t.TempDir(), Options{})
	mustPut(t, probe, "size-probe", art)
	entrySize := probe.DiskBytes()
	if entrySize <= 0 {
		t.Fatal("size probe failed")
	}
	// Cap the tier at 3 entries; keep the memory front tiny so disk reads
	// actually happen.
	s := newDiskStore(t, dir, Options{})
	s.cap, s.capBytes = 1, 3*entrySize
	keys := []string{"k1", "k2", "k3"}
	for _, k := range keys {
		mustPut(t, s, k, art)
	}
	if s.DiskEntries() != 3 {
		t.Fatalf("disk holds %d entries, want 3", s.DiskEntries())
	}
	// Refresh k1 so k2 is the LRU entry, then overflow the cap.
	if _, _, ok := s.Get("k1"); !ok {
		t.Fatal("k1 not servable")
	}
	mustPut(t, s, "k4", art)
	if s.DiskBytes() > 3*entrySize {
		t.Fatalf("disk tier over cap: %d > %d", s.DiskBytes(), 3*entrySize)
	}
	if _, err := os.Stat(s.Path("k2")); !os.IsNotExist(err) {
		t.Fatal("k2 (LRU) not evicted")
	}
	for _, k := range []string{"k1", "k3", "k4"} {
		if _, err := os.Stat(s.Path(k)); err != nil {
			t.Fatalf("%s evicted out of LRU order: %v", k, err)
		}
	}
}

// TestENOSPCDegradesAndScrubHeals walks the full failure arc: a disk that
// rejects every write with ENOSPC fails the store over to memory-only
// degraded mode (after evict-and-retry), serving continues from memory,
// and once the disk recovers a scrub pass probes it back into service.
func TestENOSPCDegradesAndScrubHeals(t *testing.T) {
	dir := t.TempDir()
	key, art := compileArtifact(t, "gcd")
	reg := obs.NewRegistry()
	inj := chaos.New(chaos.Plan{ENOSPCEvery: 1}, nil, reg)
	s := newDiskStore(t, dir, Options{FS: inj, Registry: reg})

	if err := s.Put(key, art); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err == nil {
		t.Fatal("Flush after a Put on a full disk should report the install failure")
	}
	if !s.Degraded() {
		t.Fatal("store not degraded after persistent ENOSPC")
	}
	if reg.Gauge("cgra_cache_disk_degraded").Value() != 1 {
		t.Fatal("cgra_cache_disk_degraded gauge not raised")
	}
	// Memory tier still serves: the compile was not lost.
	if _, src, ok := s.Get(key); !ok || src != SourceMemory {
		t.Fatalf("memory tier lost the artifact (ok=%t src=%q)", ok, src)
	}
	// Degraded mode skips disk writes entirely (no error, no file).
	mustPut(t, s, key+"2", art)
	if _, err := os.Stat(s.Path(key + "2")); !os.IsNotExist(err) {
		t.Fatal("degraded store still wrote to disk")
	}

	// Disk recovers; the next scrub pass heals the store.
	inj.Disarm()
	rep := s.ScrubNow()
	if !rep.Healed || s.Degraded() {
		t.Fatalf("scrub did not heal the store (healed=%t degraded=%t)", rep.Healed, s.Degraded())
	}
	if reg.Gauge("cgra_cache_disk_degraded").Value() != 0 {
		t.Fatal("cgra_cache_disk_degraded gauge not cleared")
	}
	if reg.Counter("cgra_cache_scrub_heals_total").Value() != 1 {
		t.Fatal("heal not counted in cgra_cache_scrub_heals_total")
	}
	// Writes reach the disk again.
	mustPut(t, s, key, art)
	if _, err := os.Stat(s.Path(key)); err != nil {
		t.Fatalf("post-heal entry not on disk: %v", err)
	}
}

// TestStartupRemovesStaleTempFiles proves leftovers of a commit that
// crashed before its rename are cleaned at startup.
func TestStartupRemovesStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, strings.Repeat("a", 8)+".art.tmp-3")
	if err := os.WriteFile(stale, []byte("half a commit"), 0o644); err != nil {
		t.Fatal(err)
	}
	newDiskStore(t, dir, Options{})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived startup")
	}
}

// TestCommitIsFsyncedBeforeRename pins the durability order of the disk
// commit: the temp file must be fsynced before the rename installs it, and
// the parent directory after — the fix for the crash window where a rename
// could persist while its data had not. Entries queued together share one
// directory fsync, after the last of their renames.
func TestCommitIsFsyncedBeforeRename(t *testing.T) {
	dir := t.TempDir()
	key, art := compileArtifact(t, "gcd")
	s, fs := newGatedStore(t, dir, Options{})
	if err := s.Put(key, art); err != nil {
		t.Fatal(err)
	}
	<-fs.held
	fs.pass <- struct{}{}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"write:" + key + ".art.tmp",
		"sync:" + key + ".art.tmp",
		"rename:" + key + ".art",
		"sync:" + filepath.Base(dir),
	}
	if got := fs.trace(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("commit protocol order:\n got %v\nwant %v", got, want)
	}

	// Hold k1's commit so k2 and k3 queue behind it as one batch.
	if err := s.Put("k1", art); err != nil {
		t.Fatal(err)
	}
	<-fs.held
	for _, k := range []string{"k2", "k3"} {
		if err := s.Put(k, art); err != nil {
			t.Fatal(err)
		}
	}
	fs.open()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want = []string{
		"write:k1.art.tmp", "sync:k1.art.tmp", "rename:k1.art", "sync:" + filepath.Base(dir),
		"write:k2.art.tmp", "sync:k2.art.tmp", "rename:k2.art",
		"write:k3.art.tmp", "sync:k3.art.tmp", "rename:k3.art", "sync:" + filepath.Base(dir),
	}
	if got := fs.trace(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("group commit order:\n got %v\nwant %v", got, want)
	}
}

// TestScrubRaceWithTraffic hammers Get and Put from concurrent goroutines
// while ScrubNow runs in a loop. The assertion is the race detector's:
// `go test -race` must stay silent, and nothing deadlocks.
func TestScrubRaceWithTraffic(t *testing.T) {
	key, art := compileArtifact(t, "gcd")
	s := newDiskStore(t, t.TempDir(), Options{})
	s.cap = 4
	if err := s.Put(key, art); err != nil {
		t.Fatal(err)
	}

	keys := []string{key, key[:63] + "0", key[:63] + "1", key[:63] + "2"}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	worker := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					fn(i)
				}
			}
		}()
	}
	worker(func(i int) { s.Put(keys[i%len(keys)], art) })
	worker(func(i int) { s.Get(keys[(i+1)%len(keys)]) })

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		s.ScrubNow()
	}
	close(stop)
	wg.Wait()

	// The store still works after the storm.
	if _, _, ok := s.Get(key); !ok {
		// The hammer may have evicted it from memory and the scrubber may
		// race disk state; reinstall and verify health.
		if err := s.Put(key, art); err != nil {
			t.Fatalf("store unhealthy after scrub storm: %v", err)
		}
		if _, _, ok := s.Get(key); !ok {
			t.Fatal("store lost a fresh Put after scrub storm")
		}
	}
}
