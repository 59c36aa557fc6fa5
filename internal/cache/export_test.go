package cache

import (
	"os"
	"sync"
	"testing"
	"time"
)

// TestExportImportRoundTrip: what one node exports, another imports — and
// the importing node serves it from both tiers, including across a
// restart.
func TestExportImportRoundTrip(t *testing.T) {
	key, art := compileArtifact(t, "gcd")

	src, err := New(Options{Dir: t.TempDir(), ScrubInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.Put(key, art); err != nil {
		t.Fatal(err)
	}
	data, ok := src.Export(key)
	if !ok {
		t.Fatal("Export miss on a key just Put")
	}
	if err := Verify(data); err != nil {
		t.Fatalf("exported frame fails verification: %v", err)
	}

	dstDir := t.TempDir()
	dst, err := New(Options{Dir: dstDir, ScrubInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if dst.Contains(key) {
		t.Fatal("fresh store claims to contain the key")
	}
	if err := dst.Import(key, data); err != nil {
		t.Fatalf("Import: %v", err)
	}
	got, source, ok := dst.Get(key)
	if !ok || source != SourceMemory {
		t.Fatalf("post-import Get: ok=%t src=%q, want memory hit", ok, source)
	}
	if got.Kernel != art.Kernel || got.NumCtx != art.NumCtx {
		t.Fatal("imported artifact differs from the original")
	}
	dst.Close()

	// The import must have landed on disk too: a restarted store serves it
	// cold.
	reopened, err := New(Options{Dir: dstDir, ScrubInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if _, source, ok := reopened.Get(key); !ok || source != SourceDisk {
		t.Fatalf("reopened Get: ok=%t src=%q, want disk hit", ok, source)
	}
}

// TestExportMemoryOnly: a store without a disk tier re-frames the memory
// entry on the fly.
func TestExportMemoryOnly(t *testing.T) {
	key, art := compileArtifact(t, "gcd")
	s, err := New(Options{MemEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(key, art); err != nil {
		t.Fatal(err)
	}
	data, ok := s.Export(key)
	if !ok {
		t.Fatal("memory-only Export miss")
	}
	if err := Verify(data); err != nil {
		t.Fatalf("re-framed entry fails verification: %v", err)
	}
	if _, ok := s.Export("0000000000000000000000000000000000000000000000000000000000000000"); ok {
		t.Fatal("Export hit on an absent key")
	}
}

// TestImportRejectsEveryCorruptionMode runs the full corruption matrix a
// peer response can arrive in. Every mode must be rejected without
// poisoning the store, and a clean import afterwards must still land.
func TestImportRejectsEveryCorruptionMode(t *testing.T) {
	key, art := compileArtifact(t, "gcd")
	pristine, err := New(Options{Dir: t.TempDir(), ScrubInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pristine.Close()
	if err := pristine.Put(key, art); err != nil {
		t.Fatal(err)
	}
	good, ok := pristine.Export(key)
	if !ok {
		t.Fatal("Export miss")
	}

	corruptions := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"truncated header", func(b []byte) []byte { return b[:10] }},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-7] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"bad version", func(b []byte) []byte { b[9] = 0x7F; return b }},
		{"flipped payload bit", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"flipped checksum bit", func(b []byte) []byte { b[20] ^= 0x01; return b }},
		{"valid frame, garbage payload", func(b []byte) []byte {
			return frameEntry(append(make([]byte, headerSize), "not an artifact"...))
		}},
		{"empty response", func(b []byte) []byte { return nil }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Options{Dir: t.TempDir(), ScrubInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			bad := tc.corrupt(append([]byte(nil), good...))
			if err := s.Import(key, bad); err == nil {
				t.Fatalf("%s: corrupt import accepted", tc.name)
			}
			if s.Contains(key) {
				t.Fatalf("%s: rejected import left the key in the store", tc.name)
			}
			if _, _, ok := s.Get(key); ok {
				t.Fatalf("%s: rejected import is servable", tc.name)
			}
			// The store is not poisoned: a clean import still works.
			if err := s.Import(key, good); err != nil {
				t.Fatalf("%s: clean import after rejection: %v", tc.name, err)
			}
			if a, _, ok := s.Get(key); !ok || a.Kernel != art.Kernel {
				t.Fatalf("%s: clean import not servable", tc.name)
			}
		})
	}
}

// TestExportQuarantinesCorruptDisk: rot under an Export is detected,
// quarantined, and answered with ok=false so the peer looks elsewhere.
func TestExportQuarantinesCorruptDisk(t *testing.T) {
	key, art := compileArtifact(t, "gcd")
	dir := t.TempDir()
	s, err := New(Options{Dir: dir, ScrubInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, art); err != nil {
		t.Fatal(err)
	}
	path := s.Path(key)
	s.Close()

	// Reopen (memory front now empty) and rot the disk entry.
	if err := os.WriteFile(path, []byte("bit rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Options{Dir: dir, ScrubInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Export(key); ok {
		t.Fatal("Export served a corrupt disk entry")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not quarantined off the serving path")
	}
	if _, _, ok := s2.Get(key); ok {
		t.Fatal("corrupt entry still servable after quarantine")
	}
}

// TestScrubRaceWithTraffic hammers Get/Put/Export/Import from concurrent
// goroutines while ScrubNow runs in a loop. The assertion is the race
// detector's: `go test -race` must stay silent, and nothing deadlocks.
func TestScrubRaceWithTraffic(t *testing.T) {
	key, art := compileArtifact(t, "gcd")
	s, err := New(Options{Dir: t.TempDir(), MemEntries: 4, ScrubInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(key, art); err != nil {
		t.Fatal(err)
	}
	frame, ok := s.Export(key)
	if !ok {
		t.Fatal("Export miss")
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
	worker(func(i int) { s.Export(keys[(i+2)%len(keys)]) })
	worker(func(i int) { s.Import(keys[(i+3)%len(keys)], frame) })

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
