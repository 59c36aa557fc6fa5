package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cgra/internal/arch"
	"cgra/internal/pipeline"
	"cgra/internal/workload"
)

// compileArtifact builds one real artifact to exercise the store with.
func compileArtifact(t *testing.T, workloadName string) (string, *pipeline.Artifact) {
	t.Helper()
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName(workloadName)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pipeline.Compile(w.Kernel, comp, pipeline.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.Key(w.Kernel, comp, pipeline.Defaults()), a
}

// mustPut stores an artifact and waits for its disk commit, for a test
// that reads the disk tier next.
func mustPut(t *testing.T, s *Store, key string, art *pipeline.Artifact) {
	t.Helper()
	if err := s.Put(key, art); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryHitAndMiss(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, art := compileArtifact(t, "gcd")
	if _, _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(key, art); err != nil {
		t.Fatal(err)
	}
	got, src, ok := s.Get(key)
	if !ok || src != SourceMemory {
		t.Fatalf("want memory hit, got ok=%t src=%q", ok, src)
	}
	if got != art {
		t.Fatal("memory tier returned a different artifact")
	}
}

// TestLRUEvictionOrder proves the memory front evicts strictly
// least-recently-used entries, and that a Get refreshes recency.
func TestLRUEvictionOrder(t *testing.T) {
	s, err := open(Options{}, 3, diskCap)
	if err != nil {
		t.Fatal(err)
	}
	_, art := compileArtifact(t, "gcd")
	put := func(k string) {
		if err := s.Put(k, art); err != nil {
			t.Fatal(err)
		}
	}
	inMem := func(k string) bool {
		_, src, ok := s.Get(k)
		return ok && src == SourceMemory
	}
	put("a")
	put("b")
	put("c")
	// Refresh "a" so "b" is now the LRU entry.
	if !inMem("a") {
		t.Fatal("a should be resident")
	}
	put("d") // evicts b
	if inMem("b") {
		t.Fatal("b survived eviction; LRU order violated")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !inMem(k) {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
	put("e") // the inMem probes refreshed a, c, d; "a" is oldest now
	if inMem("a") {
		t.Fatal("a survived; Get must refresh recency")
	}
	if s.Len() != 3 {
		t.Fatalf("memory front holds %d entries, cap is 3", s.Len())
	}
}

func TestDiskPersistenceAcrossStores(t *testing.T) {
	dir := t.TempDir()
	key, art := compileArtifact(t, "gcd")
	s1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s1, key, art)
	// A fresh store over the same directory (a restarted daemon) must
	// serve the artifact from disk, then from memory.
	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, src, ok := s2.Get(key)
	if !ok || src != SourceDisk {
		t.Fatalf("want disk hit, got ok=%t src=%q", ok, src)
	}
	if _, err := got.Realize(); err != nil {
		t.Fatalf("disk-served artifact does not realize: %v", err)
	}
	if _, src, _ := s2.Get(key); src != SourceMemory {
		t.Fatalf("disk hit was not promoted to memory (src=%q)", src)
	}
}

// TestCorruptEntryQuarantined proves a damaged on-disk entry is moved
// aside and reported as a miss — the caller recompiles, nothing crashes —
// and that a subsequent Put reinstalls a healthy entry.
func TestCorruptEntryQuarantined(t *testing.T) {
	key, art := compileArtifact(t, "gcd")
	corruptions := map[string]func([]byte) []byte{
		"truncated header": func(b []byte) []byte { return b[:10] },
		"truncated body":   func(b []byte) []byte { return b[:len(b)-7] },
		"bad magic":        func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"bad version":      func(b []byte) []byte { b[9] = 0x7F; return b },
		"flipped payload":  func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"flipped checksum": func(b []byte) []byte { b[20] ^= 0x01; return b },
		"valid frame, garbage payload": func([]byte) []byte {
			return frameEntry(append(make([]byte, headerSize), "not an artifact"...))
		},
	}
	for name, corrupt := range corruptions {
		t.Run(strings.ReplaceAll(name, " ", "_"), func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			mustPut(t, s, key, art)
			path := s.Path(key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			// Fresh store: no memory front to mask the damage.
			s2, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, ok := s2.Get(key); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if _, err := os.Stat(path + ".quarantined"); err != nil {
				t.Fatalf("corrupt entry not quarantined: %v", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry still in place")
			}
			// Recovery: a recompile reinstalls and the entry serves again.
			mustPut(t, s2, key, art)
			s3, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if _, src, ok := s3.Get(key); !ok || src != SourceDisk {
				t.Fatalf("reinstalled entry not served (ok=%t src=%q)", ok, src)
			}
		})
	}
}

// TestConcurrentGetPut hammers the store from many goroutines (run under
// -race by CI) across both tiers.
func TestConcurrentGetPut(t *testing.T) {
	dir := t.TempDir()
	s, err := open(Options{Dir: dir}, 4, diskCap)
	if err != nil {
		t.Fatal(err)
	}
	_, art := compileArtifact(t, "gcd")
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064d", i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := keys[(g+i)%len(keys)]
				if i%3 == 0 {
					if err := s.Put(k, art); err != nil {
						t.Error(err)
						return
					}
				} else if a, _, ok := s.Get(k); ok && a.Program.Kernel != art.Program.Kernel {
					t.Error("concurrent Get returned foreign artifact")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Every key was Put at least once; all must now be servable.
	for _, k := range keys {
		if _, _, ok := s.Get(k); !ok {
			t.Fatalf("key %s lost after concurrent traffic", k)
		}
	}
	if n, err := filepath.Glob(filepath.Join(dir, "*.tmp-*")); err == nil && len(n) > 0 {
		t.Fatalf("temp files leaked: %v", n)
	}
}

func TestMemoryOnlyStore(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, art := compileArtifact(t, "gcd")
	if err := s.Put(key, art); err != nil {
		t.Fatal(err)
	}
	if p := s.Path(key); p != "" {
		t.Fatalf("memory-only store reports a disk path %q", p)
	}
	if _, src, ok := s.Get(key); !ok || src != SourceMemory {
		t.Fatalf("want memory hit, got ok=%t src=%q", ok, src)
	}
}

// TestStartupIndexEvictsOldest: a store reopened over a directory that
// exceeds its cap orders the entries by mtime and evicts the oldest,
// whatever the order of their keys.
func TestStartupIndexEvictsOldest(t *testing.T) {
	_, art := compileArtifact(t, "gcd")
	dir := t.TempDir()
	s, err := New(Options{Dir: dir, ScrubInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	// Oldest first: "b", then "c", then "a".
	for i, key := range []string{"b", "c", "a"} {
		mustPut(t, s, key, art)
		mtime := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.Path(key), mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	entry := s.DiskBytes() / 3
	s.Close()

	s, err = open(Options{Dir: dir, ScrubInterval: -1}, memEntries, 2*entry+entry/2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := s.DiskEntries(); n != 2 {
		t.Fatalf("%d entries after reopening under a cap for two", n)
	}
	if _, err := os.Stat(s.Path("b")); !os.IsNotExist(err) {
		t.Errorf("the oldest entry survived the cap: %v", err)
	}
	for _, key := range []string{"a", "c"} {
		if _, err := os.Stat(s.Path(key)); err != nil {
			t.Errorf("entry %q was evicted instead of the oldest: %v", key, err)
		}
	}
}
