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

// gatedFS wraps the real filesystem, records the order of the writes,
// syncs and renames the disk commits make, and gates them: the Sync of a
// temp file first reports the file on held, then waits for a token from
// pass, so a test can hold a commit between its temp write and its rename.
// open lets every Sync through from then on.
type gatedFS struct {
	chaos.FS
	pass     chan struct{}
	held     chan string
	openOnce sync.Once

	mu  sync.Mutex
	ops []string
}

// newGatedStore opens a disk store over dir whose commits run through a
// closed gatedFS. The gate opens when the test ends, before the store's
// Close waits for the commits it holds.
func newGatedStore(t *testing.T, dir string, o Options) (*Store, *gatedFS) {
	t.Helper()
	// held is buffered past any test's commit count, so reporting a
	// held commit never blocks it.
	fs := &gatedFS{FS: chaos.OS, pass: make(chan struct{}), held: make(chan string, 256)}
	o.FS = fs
	s := newDiskStore(t, dir, o)
	t.Cleanup(fs.open)
	return s, fs
}

func (f *gatedFS) open() { f.openOnce.Do(func() { close(f.pass) }) }

func (f *gatedFS) record(op, path string) {
	f.mu.Lock()
	f.ops = append(f.ops, op+":"+filepath.Base(path))
	f.mu.Unlock()
}

// trace returns the operations recorded since the last call, with the temp
// files' sequence numbers dropped.
func (f *gatedFS) trace() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.ops
	f.ops = nil
	for i, op := range out {
		if j := strings.Index(op, ".tmp-"); j >= 0 {
			out[i] = op[:j] + ".tmp"
		}
	}
	return out
}

func (f *gatedFS) WriteFile(path string, data []byte, perm uint32) error {
	f.record("write", path)
	return f.FS.WriteFile(path, data, perm)
}

func (f *gatedFS) Sync(path string) error {
	f.record("sync", path)
	if strings.Contains(path, ".tmp-") {
		f.held <- path
		<-f.pass
	}
	return f.FS.Sync(path)
}

func (f *gatedFS) Rename(oldPath, newPath string) error {
	f.record("rename", newPath)
	return f.FS.Rename(oldPath, newPath)
}

// TestPutReturnsBeforeDiskCommit: a Put returns, and its artifact serves
// from memory, while its disk commit is held at the temp file's fsync; the
// entry reaches the disk tier once the commit is let through.
func TestPutReturnsBeforeDiskCommit(t *testing.T) {
	key, art := compileArtifact(t, "gcd")
	reg := obs.NewRegistry()
	dir := t.TempDir()
	s, fs := newGatedStore(t, dir, Options{Registry: reg})
	done := make(chan error, 1)
	go func() { done <- s.Put(key, art) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Put waited for its disk commit")
	}
	if got, src, ok := s.Get(key); !ok || src != SourceMemory || got != art {
		t.Fatalf("want the artifact from memory, got ok=%t src=%q", ok, src)
	}
	<-fs.held
	if _, err := os.Stat(s.Path(key)); !os.IsNotExist(err) {
		t.Fatalf("entry installed before its temp file was fsynced: %v", err)
	}
	if n := reg.Gauge("cgra_cache_commit_queued").Value(); n != 1 {
		t.Fatalf("cgra_cache_commit_queued = %v with one commit held, want 1", n)
	}
	fs.open()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.DiskEntries() != 1 {
		t.Fatalf("disk index holds %d entries after Flush, want 1", s.DiskEntries())
	}
	if n := reg.Gauge("cgra_cache_commit_queued").Value(); n != 0 {
		t.Fatalf("cgra_cache_commit_queued = %v after Flush, want 0", n)
	}
	if n := reg.Histogram("cgra_cache_commit_seconds", commitBuckets).Count(); n != 1 {
		t.Fatalf("cgra_cache_commit_seconds counted %d commits, want 1", n)
	}
	if _, src, ok := newDiskStore(t, dir, Options{}).Get(key); !ok || src != SourceDisk {
		t.Fatalf("flushed entry not served from disk (ok=%t src=%q)", ok, src)
	}
}

// TestCrashMidBatchKeepsCompleteEntries abandons a store, without Close,
// while one entry is installed and the next is held between its temp write
// and its rename: a fresh store over the directory indexes only the
// complete entry, quarantines nothing and removes the stale temp file.
func TestCrashMidBatchKeepsCompleteEntries(t *testing.T) {
	_, art := compileArtifact(t, "gcd")
	dir := t.TempDir()
	s, fs := newGatedStore(t, dir, Options{})
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, art); err != nil {
			t.Fatal(err)
		}
	}
	<-fs.held
	fs.pass <- struct{}{}
	<-fs.held // a is renamed into place; b's temp file is written

	s2 := newDiskStore(t, dir, Options{})
	if n := s2.DiskEntries(); n != 1 {
		t.Fatalf("fresh store indexes %d entries, want 1", n)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(tmp) > 0 {
		t.Fatalf("stale temp files survived startup: %v", tmp)
	}
	if rep := s2.ScrubNow(); !rep.Clean() || rep.Checked != 1 {
		t.Fatalf("fresh store's scrub after the crash: %s, want 1 clean", rep)
	}
	if _, src, ok := s2.Get("a"); !ok || src != SourceDisk {
		t.Fatalf("complete entry not served from disk (ok=%t src=%q)", ok, src)
	}
	for _, k := range []string{"b", "c"} {
		if _, _, ok := s2.Get(k); ok {
			t.Fatalf("entry %q served though its commit never finished", k)
		}
	}
}

// TestPutWaitsAtQueueCap: with commitQueueCap commits queued behind a held
// one, the next Put waits until the drainer makes room.
func TestPutWaitsAtQueueCap(t *testing.T) {
	_, art := compileArtifact(t, "gcd")
	reg := obs.NewRegistry()
	s, fs := newGatedStore(t, t.TempDir(), Options{Registry: reg})
	key := func(i int) string { return fmt.Sprintf("%064d", i) }
	for i := 0; i < commitQueueCap; i++ {
		if err := s.Put(key(i), art); err != nil {
			t.Fatal(err)
		}
	}
	<-fs.held
	if n := reg.Gauge("cgra_cache_commit_queued").Value(); n != commitQueueCap {
		t.Fatalf("cgra_cache_commit_queued = %v, want %d", n, commitQueueCap)
	}
	done := make(chan error, 1)
	go func() { done <- s.Put(key(commitQueueCap), art) }()
	select {
	case <-done:
		t.Fatalf("Put returned with %d commits queued", commitQueueCap)
	case <-time.After(100 * time.Millisecond):
	}
	fs.open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := s.DiskEntries(); n != commitQueueCap+1 {
		t.Fatalf("disk holds %d entries, want %d", n, commitQueueCap+1)
	}
}

// TestPutAfterCloseIsCommitted: Close leaves the store usable, and a Put
// after it still reaches the disk (a second Close waits for it).
func TestPutAfterCloseIsCommitted(t *testing.T) {
	key, art := compileArtifact(t, "gcd")
	dir := t.TempDir()
	s := newDiskStore(t, dir, Options{})
	s.Close()
	if err := s.Put(key, art); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, src, ok := newDiskStore(t, dir, Options{}).Get(key); !ok || src != SourceDisk {
		t.Fatalf("Put after Close not served from disk (ok=%t src=%q)", ok, src)
	}
}
