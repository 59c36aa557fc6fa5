// Package cache is a persistent, content-addressed store for compiled CGRA
// artifacts. The key is the stable digest of (canonical kernel IR,
// composition structure, pipeline options) computed by pipeline.Key; the
// value is a pipeline.Artifact — the ctxgen.Program of one compile:
// contexts, C-Box/branch tables and allocation metadata — stored on disk
// in the artifact's fixed binary layout (pipeline.ArtifactVersion, context
// images packed, formats derived at decode) behind a checksummed frame.
//
// The store is two-tiered. An in-memory LRU front holds artifacts for hot
// kernels; it shares their programs with the compiles that put them and
// with every kernel realized from them, and copies nothing (nothing
// writes a program once generated). Behind it an optional on-disk layer
// persists every entry across process restarts, so a restarted daemon
// serves its kernels without recompiling. An entry that does not decode —
// corrupt, or not a runnable program for its composition — is quarantined
// and reported as a miss.
//
// The disk layer is written behind: Put returns once the artifact is in the
// memory front and its commit is queued, and one drainer goroutine, started
// by the Put that finds the queue idle and gone once it is empty, encodes
// and commits every queued entry. The disk layer is crash-safe and
// self-healing:
//
//   - Entries are committed atomically: the temp file is fsynced before the
//     rename, so a crash at any point leaves either the old state or the
//     complete new entry — never a torn one that only the checksum would
//     catch later. A batch of renames is made durable by one directory
//     fsync after the last of them (group commit).
//   - Entries are durable once Flush, Close or ScrubNow returns; each waits
//     for every commit queued before it. A crash loses only entries still
//     queued, which their next request recompiles.
//   - Every entry carries a versioned header and a SHA-256 payload
//     checksum; a corrupt or truncated entry is quarantined on read —
//     renamed aside and reported as a miss, so the caller recompiles
//     instead of crashing.
//   - A scrubber (startup pass + periodic background rescan, see scrub.go)
//     re-verifies every on-disk checksum, quarantines bit-rot before a
//     request trips over it, reconciles the disk index, and probes a
//     degraded disk back into service.
//   - Disk usage is capped: least-recently-used entries are evicted once
//     the configured byte budget is exceeded, and an ENOSPC write first
//     evicts and retries, then fails the store over into memory-only
//     degraded mode rather than erroring every request.
//
// All methods are safe for concurrent use. All disk IO goes through a
// chaos.FS, so the chaos injector can exercise every failure path above
// deterministically.
package cache

import (
	"bytes"
	"cmp"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cgra/internal/chaos"
	"cgra/internal/obs"
	"cgra/internal/pipeline"
)

// FormatVersion is the on-disk entry format version.
const FormatVersion = 1

// entryMagic opens every on-disk entry.
var entryMagic = []byte("CGRART01")

// headerSize is magic(8) + version(4) + checksum(32).
const headerSize = 8 + 4 + sha256.Size

// Hit sources reported by Get.
const (
	SourceMemory = "memory"
	SourceDisk   = "disk"
)

// A store keeps at most memEntries artifacts in its memory front and
// evicts least-recently-used disk entries past diskCap bytes.
const (
	memEntries = 128
	diskCap    = 1 << 30 // 1 GiB
)

// defaultScrubInterval paces the background scrubber when
// Options.ScrubInterval is 0.
const defaultScrubInterval = time.Minute

// commitQueueCap bounds the commits queued behind Put (including the batch
// being committed): Put waits while this many are pending, so memory stays
// bounded when the disk is slower than compiles.
const commitQueueCap = 64

// writeErrTrip is the consecutive-disk-write-failure count that fails the
// store over into memory-only degraded mode (ENOSPC surviving the
// evict-and-retry trips immediately).
const writeErrTrip = 3

// Options configures a Store.
type Options struct {
	// Dir is the on-disk layer's directory ("" = memory-only). Created if
	// missing.
	Dir string
	// Registry receives the cache metrics (nil = private registry).
	Registry *obs.Registry
	// FS is the filesystem the disk layer runs on (nil = the real OS).
	// The chaos injector plugs in here.
	FS chaos.FS
	// ScrubInterval paces the background scrubber's periodic rescan
	// (0 = one minute, negative = no scrubber goroutine; ScrubNow remains
	// available). Ignored for memory-only stores.
	ScrubInterval time.Duration
}

// Store is a two-tier content-addressed artifact cache.
type Store struct {
	fs       chaos.FS
	dir      string
	cap      int
	capBytes int64

	mu  sync.Mutex
	mem map[string]*list.Element
	lru *list.List // front = most recent

	// Disk index: every installed entry's size, LRU-ordered (front = most
	// recently used). Maintained by Put/Get and reconciled by the scrubber.
	disk      map[string]*list.Element
	diskLRU   *list.List
	diskBytes int64
	// consecWriteErrs counts back-to-back disk write failures; reaching
	// writeErrTrip degrades the store to memory-only.
	consecWriteErrs int
	tmpSeq          atomic.Int64

	// degraded is the memory-only failure mode: disk writes are skipped
	// until the scrubber's probe write succeeds again.
	degraded atomic.Bool

	// The write-behind queue. wmu guards it; wcond is broadcast whenever a
	// batch finishes, waking Flush and a Put waiting for room. queued and
	// finished count commits ever queued and ever finished (landed, failed
	// or skipped), so queued-finished is the backlog.
	wmu              sync.Mutex
	wcond            *sync.Cond
	queue            []pendingPut
	draining         bool
	queued, finished uint64
	// commitErr is the first commit error since the last Flush.
	commitErr error

	stop      chan struct{}
	scrubDone chan struct{}
	closeOnce sync.Once

	hitsMem     *obs.Counter
	hitsDisk    *obs.Counter
	misses      *obs.Counter
	evictions   *obs.Counter
	quarantined *obs.Counter
	puts        *obs.Counter
	hitAge      *obs.Histogram

	diskBytesG    *obs.Gauge
	diskEntriesG  *obs.Gauge
	diskEvictions *obs.Counter
	diskWriteErrs *obs.Counter
	degradedG     *obs.Gauge
	commitQueued  *obs.Gauge
	commitSeconds *obs.Histogram

	scrubRuns        *obs.Counter
	scrubChecked     *obs.Counter
	scrubQuarantined *obs.Counter
	scrubErrors      *obs.Counter
	scrubHeals       *obs.Counter
}

type memEntry struct {
	key   string
	art   *pipeline.Artifact
	added time.Time
}

type diskEntry struct {
	key  string
	size int64
}

// pendingPut is one commit queued by Put.
type pendingPut struct {
	key  string
	art  *pipeline.Artifact
	at   time.Time
	size int64 // the encoded entry's bytes, once installed
}

// hitAgeBuckets spans milliseconds to hours: artifact reuse ranges from
// "compiled moments ago" to "persisted across restarts days ago".
var hitAgeBuckets = []float64{0.001, 0.01, 0.1, 1, 10, 60, 600, 3600, 86400}

// commitBuckets span one fsync on a fast disk to a backlog behind a slow
// one.
var commitBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 2}

// New opens (creating directories as needed) a store. Stores with a disk
// layer start a scrubber goroutine (unless disabled); call Close to stop
// it and to make every Put durable.
func New(o Options) (*Store, error) { return open(o, memEntries, diskCap) }

// open is New with the memory front's entry cap and the disk tier's byte
// cap given; tests shrink them.
func open(o Options, capEntries int, capBytes int64) (*Store, error) {
	reg := o.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	fsys := o.FS
	if fsys == nil {
		fsys = chaos.OS
	}
	if o.Dir != "" {
		if err := fsys.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: %v", err)
		}
	}
	reg.Help("cgra_cache_hits_total", "artifact cache hits by tier (memory, disk)")
	reg.Help("cgra_cache_misses_total", "artifact cache misses")
	reg.Help("cgra_cache_evictions_total", "artifacts evicted from the in-memory LRU front")
	reg.Help("cgra_cache_quarantined_total", "corrupt on-disk entries quarantined")
	reg.Help("cgra_cache_puts_total", "artifacts stored")
	reg.Help("cgra_cache_hit_age_seconds", "age of the served artifact at hit time")
	reg.Help("cgra_cache_disk_bytes", "bytes held by the on-disk tier")
	reg.Help("cgra_cache_disk_entries", "entries held by the on-disk tier")
	reg.Help("cgra_cache_disk_evictions_total", "disk entries evicted by the byte cap or ENOSPC recovery")
	reg.Help("cgra_cache_disk_write_errors_total", "failed disk commit attempts")
	reg.Help("cgra_cache_disk_degraded", "1 while the disk tier is failed over to memory-only mode")
	reg.Help("cgra_cache_commit_queued", "disk commits queued behind Put and not yet durable")
	reg.Help("cgra_cache_commit_seconds", "time from Put to the entry being durable on disk")
	reg.Help("cgra_cache_scrub_runs_total", "scrubber passes over the disk tier")
	reg.Help("cgra_cache_scrub_checked_total", "disk entries checksum-verified by the scrubber")
	reg.Help("cgra_cache_scrub_quarantined_total", "corrupt disk entries the scrubber quarantined")
	reg.Help("cgra_cache_scrub_errors_total", "disk entries the scrubber could not read")
	reg.Help("cgra_cache_scrub_heals_total", "degraded-mode exits after a successful probe write")
	s := &Store{
		fs:       fsys,
		dir:      o.Dir,
		cap:      capEntries,
		capBytes: capBytes,
		mem:      map[string]*list.Element{},
		lru:      list.New(),
		disk:     map[string]*list.Element{},
		diskLRU:  list.New(),
		stop:     make(chan struct{}),

		hitsMem:     reg.Counter("cgra_cache_hits_total", obs.L("tier", "memory")),
		hitsDisk:    reg.Counter("cgra_cache_hits_total", obs.L("tier", "disk")),
		misses:      reg.Counter("cgra_cache_misses_total"),
		evictions:   reg.Counter("cgra_cache_evictions_total"),
		quarantined: reg.Counter("cgra_cache_quarantined_total"),
		puts:        reg.Counter("cgra_cache_puts_total"),
		hitAge:      reg.Histogram("cgra_cache_hit_age_seconds", hitAgeBuckets),

		diskBytesG:    reg.Gauge("cgra_cache_disk_bytes"),
		diskEntriesG:  reg.Gauge("cgra_cache_disk_entries"),
		diskEvictions: reg.Counter("cgra_cache_disk_evictions_total"),
		diskWriteErrs: reg.Counter("cgra_cache_disk_write_errors_total"),
		degradedG:     reg.Gauge("cgra_cache_disk_degraded"),
		commitQueued:  reg.Gauge("cgra_cache_commit_queued"),
		commitSeconds: reg.Histogram("cgra_cache_commit_seconds", commitBuckets),

		scrubRuns:        reg.Counter("cgra_cache_scrub_runs_total"),
		scrubChecked:     reg.Counter("cgra_cache_scrub_checked_total"),
		scrubQuarantined: reg.Counter("cgra_cache_scrub_quarantined_total"),
		scrubErrors:      reg.Counter("cgra_cache_scrub_errors_total"),
		scrubHeals:       reg.Counter("cgra_cache_scrub_heals_total"),
	}
	s.wcond = sync.NewCond(&s.wmu)
	if s.dir != "" {
		s.loadDiskIndex()
		interval := o.ScrubInterval
		if interval == 0 {
			interval = defaultScrubInterval
		}
		if interval > 0 {
			s.scrubDone = make(chan struct{})
			go s.scrubLoop(interval)
		}
	}
	return s, nil
}

// Close waits for every queued disk commit, then stops the background
// scrubber. Idempotent; the store remains usable for Get/Put afterwards (a
// later Put is committed all the same, and a later Close or Flush waits
// for it).
func (s *Store) Close() {
	s.settle()
	s.closeOnce.Do(func() {
		close(s.stop)
		if s.scrubDone != nil {
			<-s.scrubDone
		}
	})
}

// Path returns the on-disk location of a key ("" for memory-only stores).
func (s *Store) Path(key string) string {
	if s.dir == "" {
		return ""
	}
	return filepath.Join(s.dir, key+".art")
}

// Len returns the number of entries in the memory front.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// Degraded reports whether the disk tier has failed over to memory-only
// mode (writes skipped until a scrubber probe heals it). Always false for
// memory-only stores, which have no disk to degrade.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// DiskBytes returns the bytes currently indexed in the disk tier.
func (s *Store) DiskBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diskBytes
}

// DiskEntries returns the number of entries indexed in the disk tier.
func (s *Store) DiskEntries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.disk)
}

// loadDiskIndex scans the cache directory once at startup: stale temp
// files from a crashed commit are removed, and every installed entry is
// indexed (size + recency from mtime) without reading its payload — the
// scrubber verifies contents.
func (s *Store) loadDiskIndex() {
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	type found struct {
		key   string
		size  int64
		mtime time.Time
	}
	var idx []found
	for _, e := range ents {
		name := e.Name()
		if strings.Contains(name, ".tmp-") {
			// Leftover from a commit interrupted before the rename: the
			// entry was never installed, the bytes are garbage.
			_ = s.fs.Remove(filepath.Join(s.dir, name))
			continue
		}
		key, ok := strings.CutSuffix(name, ".art")
		if !ok {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		idx = append(idx, found{key, fi.Size(), fi.ModTime()})
	}
	// Oldest first, so the most recently written entries end up at the
	// front of the LRU; the key breaks mtime ties, so the order is stable.
	slices.SortFunc(idx, func(a, b found) int {
		if c := a.mtime.Compare(b.mtime); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	s.mu.Lock()
	for _, f := range idx {
		s.disk[f.key] = s.diskLRU.PushFront(&diskEntry{key: f.key, size: f.size})
		s.diskBytes += f.size
	}
	s.enforceDiskCapLocked()
	s.publishDiskGaugesLocked()
	s.mu.Unlock()
}

// Get returns the cached artifact for key and the tier that served it
// (SourceMemory or SourceDisk). A disk hit is promoted into the memory
// front. A corrupt disk entry is quarantined and reported as a miss.
func (s *Store) Get(key string) (*pipeline.Artifact, string, bool) {
	s.mu.Lock()
	if el, ok := s.mem[key]; ok {
		s.lru.MoveToFront(el)
		ent := el.Value.(*memEntry)
		// Copy the pointer under the lock: insertMem may swap ent.art for a
		// re-Put of the same key concurrently.
		art := ent.art
		age := time.Since(ent.added)
		s.mu.Unlock()
		s.hitsMem.Inc()
		s.hitAge.Observe(age.Seconds())
		return art, SourceMemory, true
	}
	s.mu.Unlock()

	if s.dir == "" {
		s.misses.Inc()
		return nil, "", false
	}
	path := s.Path(key)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		// An IO error is not corruption: leave the entry for the scrubber
		// and recompile.
		s.misses.Inc()
		return nil, "", false
	}
	art, err := decodeEntry(data)
	if err != nil {
		s.quarantineKey(key)
		s.misses.Inc()
		return nil, "", false
	}
	var age time.Duration
	if fi, err := s.fs.Stat(path); err == nil {
		age = time.Since(fi.ModTime())
	}
	s.mu.Lock()
	s.touchDiskLocked(key, int64(len(data)))
	s.mu.Unlock()
	s.insertMem(key, art, time.Now().Add(-age))
	s.hitsDisk.Inc()
	s.hitAge.Observe(age.Seconds())
	return art, SourceDisk, true
}

// Put stores an artifact under key: it enters the memory front at once,
// and its disk commit is queued for the drainer, which encodes it, writes
// it atomically and makes it durable (see the package comment); Put waits
// only while commitQueueCap commits are already queued. An ENOSPC commit
// evicts least-recently-used disk entries and retries, and persistent
// write failure degrades the store to memory-only mode instead of failing
// every caller. The error is always nil: the memory tier always receives
// the artifact, and a failed commit is reported by Flush.
func (s *Store) Put(key string, art *pipeline.Artifact) error {
	s.insertMem(key, art, time.Now())
	s.puts.Inc()
	if s.dir == "" {
		return nil
	}
	s.wmu.Lock()
	for s.queued-s.finished >= commitQueueCap {
		s.wcond.Wait()
	}
	s.queue = append(s.queue, pendingPut{key: key, art: art, at: time.Now()})
	s.queued++
	s.commitQueued.SetInt(int64(s.queued - s.finished))
	start := !s.draining
	s.draining = true
	s.wmu.Unlock()
	if start {
		go s.drain()
	}
	return nil
}

// Flush waits until every disk commit queued before the call has finished,
// and returns the first commit error since the previous Flush. Entries
// that committed are durable when it returns.
func (s *Store) Flush() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.settleLocked()
	err := s.commitErr
	s.commitErr = nil
	return err
}

// settle is Flush that leaves the commit error for the next Flush.
func (s *Store) settle() {
	s.wmu.Lock()
	s.settleLocked()
	s.wmu.Unlock()
}

func (s *Store) settleLocked() {
	for target := s.queued; s.finished < target; {
		s.wcond.Wait()
	}
}

// drain is the drainer: it takes the whole queue as one batch, commits it,
// and repeats until the queue is empty, then exits. At most one runs at a
// time (draining).
func (s *Store) drain() {
	s.wmu.Lock()
	for len(s.queue) > 0 {
		batch := s.queue
		s.queue = nil
		s.wmu.Unlock()
		err := s.commitBatch(batch)
		s.wmu.Lock()
		if s.commitErr == nil {
			s.commitErr = err
		}
		s.finished += uint64(len(batch))
		s.commitQueued.SetInt(int64(s.queued - s.finished))
		s.wcond.Broadcast()
	}
	s.draining = false
	s.wmu.Unlock()
}

// commitBatch encodes and installs every entry of a batch, then makes all
// their renames durable with one directory fsync before it indexes them.
// It returns the first error; an entry that fails leaves the rest to
// commit.
func (s *Store) commitBatch(batch []pendingPut) error {
	var first error
	installed := batch[:0]
	for _, p := range batch {
		if s.degraded.Load() {
			continue
		}
		data, err := encodeEntry(p.art)
		if err != nil {
			first = cmp.Or(first, fmt.Errorf("cache: encode %s: %v", p.key, err))
			continue
		}
		err = s.writeEntry(p.key, data)
		if errors.Is(err, syscall.ENOSPC) {
			// Evict-and-retry: free several times the entry's footprint so
			// a burst of compiles does not thrash one eviction per write.
			s.evictDiskBytes(int64(len(data)) * 4)
			err = s.writeEntry(p.key, data)
		}
		s.mu.Lock()
		if err != nil {
			s.consecWriteErrs++
			trip := s.consecWriteErrs >= writeErrTrip || errors.Is(err, syscall.ENOSPC)
			s.mu.Unlock()
			s.diskWriteErrs.Inc()
			if trip {
				s.setDegraded(true)
			}
			first = cmp.Or(first, fmt.Errorf("cache: install %s: %w", p.key, err))
			continue
		}
		s.consecWriteErrs = 0
		s.mu.Unlock()
		p.size = int64(len(data))
		installed = append(installed, p)
	}
	if len(installed) == 0 {
		return first
	}
	// The entries are installed; a failed directory sync only delays
	// durability of their renames, it does not invalidate them.
	_ = s.fs.Sync(s.dir)
	s.mu.Lock()
	for _, p := range installed {
		s.touchDiskLocked(p.key, p.size)
	}
	s.enforceDiskCapLocked()
	s.publishDiskGaugesLocked()
	s.mu.Unlock()
	for _, p := range installed {
		s.commitSeconds.Observe(time.Since(p.at).Seconds())
	}
	return first
}

// GetCtx is Get inside the request's trace: the lookup becomes a
// "cache.get" span annotated with the tier that served it ("memory",
// "disk", or "miss"). Outside a traced request it is exactly Get.
func (s *Store) GetCtx(ctx context.Context, key string) (*pipeline.Artifact, string, bool) {
	sp := obs.ContextSpan(ctx).StartChild("cache.get")
	defer sp.Finish()
	art, src, ok := s.Get(key)
	if ok {
		sp.Annotate("source", src)
	} else {
		sp.Annotate("source", "miss")
	}
	return art, src, ok
}

// PutCtx is Put inside the request's trace: inserting and queueing the
// artifact become a "cache.put" span. The commit's outcome is not the
// request's: it is counted in cgra_cache_disk_write_errors_total and the
// degraded gauge.
func (s *Store) PutCtx(ctx context.Context, key string, art *pipeline.Artifact) {
	sp := obs.ContextSpan(ctx).StartChild("cache.put")
	defer sp.Finish()
	_ = s.Put(key, art)
}

// writeEntry installs one framed entry: the temp file is written and
// fsynced, then renamed into place. Any failure removes the temp file. The
// rename is durable once the directory is fsynced, which commitBatch does
// once per batch.
func (s *Store) writeEntry(key string, data []byte) error {
	path := s.Path(key)
	tmp := fmt.Sprintf("%s.tmp-%d", path, s.tmpSeq.Add(1))
	if err := s.fs.WriteFile(tmp, data, 0o644); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Sync(tmp); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	return nil
}

// setDegraded fails the disk tier over to memory-only mode (or back).
func (s *Store) setDegraded(on bool) {
	if s.degraded.Swap(on) == on {
		return
	}
	if on {
		s.degradedG.SetInt(1)
	} else {
		s.degradedG.SetInt(0)
		s.scrubHeals.Inc()
	}
}

// touchDiskLocked records (or refreshes) a disk-index entry.
func (s *Store) touchDiskLocked(key string, size int64) {
	if el, ok := s.disk[key]; ok {
		de := el.Value.(*diskEntry)
		s.diskBytes += size - de.size
		de.size = size
		s.diskLRU.MoveToFront(el)
		return
	}
	s.disk[key] = s.diskLRU.PushFront(&diskEntry{key: key, size: size})
	s.diskBytes += size
}

// dropDiskLocked removes a key from the disk index (file already gone or
// going).
func (s *Store) dropDiskLocked(key string) {
	if el, ok := s.disk[key]; ok {
		s.diskBytes -= el.Value.(*diskEntry).size
		s.diskLRU.Remove(el)
		delete(s.disk, key)
	}
}

// enforceDiskCapLocked evicts least-recently-used disk entries until the
// byte cap is respected.
func (s *Store) enforceDiskCapLocked() {
	for s.diskBytes > s.capBytes && s.diskLRU.Len() > 0 {
		tail := s.diskLRU.Back()
		key := tail.Value.(*diskEntry).key
		s.dropDiskLocked(key)
		_ = s.fs.Remove(s.Path(key))
		s.diskEvictions.Inc()
	}
}

// evictDiskBytes frees at least n bytes (at least one entry) from the LRU
// tail — the ENOSPC recovery path.
func (s *Store) evictDiskBytes(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	freed := int64(0)
	for (freed < n || freed == 0) && s.diskLRU.Len() > 0 {
		tail := s.diskLRU.Back()
		de := tail.Value.(*diskEntry)
		freed += de.size
		s.dropDiskLocked(de.key)
		_ = s.fs.Remove(s.Path(de.key))
		s.diskEvictions.Inc()
	}
	s.publishDiskGaugesLocked()
}

func (s *Store) publishDiskGaugesLocked() {
	s.diskBytesG.SetInt(s.diskBytes)
	s.diskEntriesG.SetInt(int64(len(s.disk)))
}

// insertMem adds (or refreshes) a memory-front entry, evicting from the LRU
// tail past capacity.
func (s *Store) insertMem(key string, art *pipeline.Artifact, added time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.mem[key]; ok {
		el.Value.(*memEntry).art = art
		s.lru.MoveToFront(el)
		return
	}
	s.mem[key] = s.lru.PushFront(&memEntry{key: key, art: art, added: added})
	for s.lru.Len() > s.cap {
		tail := s.lru.Back()
		s.lru.Remove(tail)
		delete(s.mem, tail.Value.(*memEntry).key)
		s.evictions.Inc()
	}
}

// quarantineKey moves a corrupt entry aside so the next Put can reinstall
// a good one and the bad bytes stay available for diagnosis.
func (s *Store) quarantineKey(key string) {
	s.quarantined.Inc()
	path := s.Path(key)
	s.mu.Lock()
	s.dropDiskLocked(key)
	s.publishDiskGaugesLocked()
	s.mu.Unlock()
	// Best effort: a failed rename (e.g. the file vanished) still counts
	// as a miss and the caller recompiles.
	_ = s.fs.Rename(path, path+".quarantined")
}

// encodeEntry encodes an artifact straight into a framed entry: the payload
// is appended after room left for the header, which is filled in after.
func encodeEntry(art *pipeline.Artifact) ([]byte, error) {
	data, err := art.AppendBinary(make([]byte, headerSize))
	if err != nil {
		return nil, err
	}
	return frameEntry(data), nil
}

// frameEntry fills in the header room at the front of data — magic,
// version, and the checksum of everything after the header.
func frameEntry(data []byte) []byte {
	copy(data, entryMagic)
	binary.LittleEndian.PutUint32(data[8:12], FormatVersion)
	sum := sha256.Sum256(data[headerSize:])
	copy(data[12:headerSize], sum[:])
	return data
}

// decodeEntry verifies the frame and decodes the artifact.
func decodeEntry(data []byte) (*pipeline.Artifact, error) {
	if err := verifyEntry(data); err != nil {
		return nil, err
	}
	art := &pipeline.Artifact{}
	if err := art.UnmarshalBinary(data[headerSize:]); err != nil {
		return nil, err
	}
	return art, nil
}

// verifyEntry checks the frame (magic, version, checksum) without decoding
// the payload — the scrubber's fast integrity check.
func verifyEntry(data []byte) error {
	if len(data) < headerSize {
		return fmt.Errorf("cache: entry truncated (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:8], entryMagic) {
		return fmt.Errorf("cache: bad entry magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != FormatVersion {
		return fmt.Errorf("cache: entry format version %d, want %d", v, FormatVersion)
	}
	payload := data[headerSize:]
	want := data[12:headerSize]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], want) {
		return fmt.Errorf("cache: checksum mismatch")
	}
	return nil
}
