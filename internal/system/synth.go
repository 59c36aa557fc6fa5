// Synthesis: the bounded worker pool that runs the tool flow off the
// invocation path, SynthesizeCtx, the compile and the one install step. A
// profiled host run that crosses the threshold enqueues a job and keeps
// going. One job per kernel is queued or running (the record's pending
// flag), the queue is bounded (overflow is shed and re-admitted by a later
// profiled run), and every attempt runs under the compile deadline,
// holding only its kernel's compile lock.
package system

import (
	"context"
	"fmt"
	"slices"
	"time"

	"cgra/internal/ir"
	"cgra/internal/obs"
	"cgra/internal/opt"
	"cgra/internal/pipeline"
)

// synthJob asks the pool to synthesize one kernel. gen pins the dispatch
// generation the request was made against: if the array degrades while the
// job is queued or compiling, the result targets a dead composition and is
// discarded as stale.
type synthJob struct {
	k   *kernel
	gen uint64
}

// startPool lazily starts the workers on first use.
func (s *System) startPool() {
	s.poolOnce.Do(func() {
		s.queue = make(chan synthJob, s.synthQueue)
		for i := 0; i < s.synthWorkers; i++ {
			go s.synthWorker()
		}
	})
}

// enqueueSynth admits one synthesis request (the caller holds k's pending
// flag and has passed the host-only and breaker gates). Returns false when
// the queue is full or the system is closed: the request is shed, the shed
// counter bumped, and a later profiled host run will re-admit the kernel.
func (s *System) enqueueSynth(k *kernel, gen uint64) bool {
	if s.closed.Load() {
		return false
	}
	s.startPool()
	// Counted before the send: a worker may take the job at once.
	s.jobs.Add(1)
	s.ctr.queueDepth.Add(1)
	select {
	case s.queue <- synthJob{k: k, gen: gen}:
		return true
	default:
		s.jobs.Done()
		s.ctr.queueDepth.Add(-1)
		s.ctr.sheds.Add(1)
		return false
	}
}

func (s *System) synthWorker() {
	for {
		select {
		case <-s.stop:
			return
		case job := <-s.queue:
			s.ctr.queueDepth.Add(-1)
			s.runSynthJob(job)
			s.jobs.Done()
		}
	}
}

// runSynthJob compiles one kernel under the deadline — unless SynthesizeCtx
// installed it while the job waited — and classifies the outcome: ok,
// deadline, error or stale. The pending flag clears last, once the outcome
// is visible.
func (s *System) runSynthJob(job synthJob) {
	defer job.k.pending.Store(false)
	job.k.compile.Lock()
	defer job.k.compile.Unlock()
	st := s.state.Load()
	var err error
	ent := st.compiled[job.k.ir.Name]
	if ent == nil {
		ctx, cancel := context.WithTimeout(context.Background(), s.compileDeadline)
		defer cancel()
		ent, err = s.compileKernel(ctx, st, job.k.ir.Name)
	}
	br := job.k.br
	result := "ok"
	switch {
	case !s.install(job.k, job.gen, ent):
		// The array degraded underneath the compile; the result targets a
		// retired composition. Discard without charging the breaker.
		result = "stale"
		br.cancelProbe()
	case err == nil:
		br.success()
	case ErrIsDeadline(err):
		result = "deadline"
		s.ctr.deadlineHits.Add(1)
		br.failure(time.Now(), breakerThreshold)
	default:
		result = "error"
		br.failure(time.Now(), breakerThreshold)
	}
	s.reg.Counter("cgra_synth_jobs_total", obs.L("result", result)).Add(1)
}

// install is the one install step: it patches ent, compiled for k against
// generation gen, into the dispatch snapshot, or reports false when a
// degradation retired gen meanwhile. A nil ent (failed compile) lands
// nothing but is reported the same way. The caller holds k's compile lock.
func (s *System) install(k *kernel, gen uint64, ent *entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.installLocked(k, gen, ent)
}

func (s *System) installLocked(k *kernel, gen uint64, ent *entry) bool {
	cur := s.state.Load()
	if cur.gen != gen {
		return false
	}
	if ent == nil || cur.compiled[k.ir.Name] == ent {
		return true
	}
	ent.maxCycles = s.cycleBudget(k)
	ent.br = k.br
	ns := cur.clone()
	ns.compiled[k.ir.Name] = ent
	ns.seq = append(slices.Clip(cur.seq), k.ir.Name)
	s.state.Store(ns)
	return true
}

// Quiesce blocks until every queued and in-flight synthesis job has
// landed. Tests and batch tools call it to observe the post-synthesis
// steady state; a serving system never needs to.
func (s *System) Quiesce() { s.jobs.Wait() }

// Close drains the synthesis queue and stops the worker pool. Subsequent
// invocations still execute (host or already-compiled CGRA path) but no
// new synthesis is admitted. Idempotent.
func (s *System) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.jobs.Wait()
	close(s.stop)
}

// SynthInfo describes one completed (or cache-served) synthesis.
type SynthInfo struct {
	// Kernel is the kernel name.
	Kernel string
	// Key is the content-addressed cache key ("" when no cache is attached).
	Key string
	// CacheSource is where the compiled kernel came from: "memory" or
	// "disk" (cache tiers), "installed" when it was already synthesized
	// before this call, or "" for a fresh compile.
	CacheSource string
	// Contexts and MaxRF are the mapping's resource footprint.
	Contexts int
	MaxRF    int
	// Elapsed is the wall time of the synthesis (or cache realization).
	Elapsed time.Duration
}

// Synthesize forces immediate, synchronous synthesis of a registered
// kernel, bypassing the profiling threshold (used by tools that want the
// accelerated path from the first invocation).
func (s *System) Synthesize(name string) error {
	_, err := s.SynthesizeCtx(context.Background(), name)
	return err
}

// SynthesizeCtx is Synthesize under a caller deadline, reporting where the
// compiled kernel came from (cache tier or fresh compile) and its resource
// footprint. Re-synthesizing an already-compiled kernel is a no-op that
// reports the installed entry with source "installed" — also when the call
// waited for a concurrent synthesis of the same kernel to land. It waits
// only behind a compile of the same kernel. A result compiled for a
// generation a degradation retired meanwhile is reported but not installed.
func (s *System) SynthesizeCtx(ctx context.Context, name string) (*SynthInfo, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "system.synthesize")
	defer sp.Finish()
	st := s.state.Load()
	k := st.kernels[name]
	if k == nil {
		return nil, fmt.Errorf("system: unknown kernel %q", name)
	}
	if st.compiled[name] == nil {
		k.compile.Lock()
		defer k.compile.Unlock()
		st = s.state.Load()
	}
	if ent := st.compiled[name]; ent != nil {
		sp.Annotate("source", "installed")
		info := synthInfo(name, ent, 0)
		info.CacheSource = "installed"
		return info, nil
	}
	start := time.Now()
	cctx, cancel := context.WithTimeout(ctx, s.compileDeadline)
	defer cancel()
	ent, err := s.compileKernel(cctx, st, name)
	if err != nil {
		return nil, err
	}
	s.install(k, st.gen, ent)
	return synthInfo(name, ent, time.Since(start)), nil
}

func synthInfo(name string, ent *entry, elapsed time.Duration) *SynthInfo {
	return &SynthInfo{
		Kernel:      name,
		Key:         ent.key,
		CacheSource: ent.cacheSrc,
		Contexts:    ent.c.UsedContexts(),
		MaxRF:       ent.c.MaxRFEntries(),
		Elapsed:     elapsed,
	}
}

// compileKernel runs the tool flow for the kernel (inlining its calls
// against the snapshot's library) targeting the snapshot's composition.
// When a cache is attached it is consulted first — a hit realizes the
// stored artifact instead of compiling, and a fresh compile's artifact is
// stored back. It takes no locks; its callers hold the kernel's compile
// lock. A compiler panic is converted into an error so a worker goroutine
// never dies.
func (s *System) compileKernel(ctx context.Context, st *sysState, name string) (ent *entry, err error) {
	defer func() {
		if r := recover(); r != nil {
			ent, err = nil, fmt.Errorf("system: internal error synthesizing %q: %v", name, r)
		}
	}()
	inl := obs.ContextSpan(ctx).StartChild("inline")
	flat, opts, key, err := s.cacheKey(st, name)
	inl.Finish()
	if err != nil {
		return nil, err
	}
	if s.Cache != nil {
		if art, src, ok := s.Cache.GetCtx(ctx, key); ok {
			if c, rerr := art.Realize(); rerr == nil {
				return &entry{c: c, ref: flat, key: key, cacheSrc: src, phys: st.phys}, nil
			}
			// A stored entry skewed by a binary upgrade (another version,
			// tables that do not fit its composition) never gets here: the
			// cache refuses it at decode, quarantines it and reports a miss,
			// so it is recompiled below. Realize itself refuses only an
			// artifact without a program, which decode never returns; that,
			// too, would fall through to a fresh compile, which overwrites
			// the entry.
		}
	}
	if hook := s.CompileHook; hook != nil {
		if err := hook(ctx, name); err != nil {
			return nil, fmt.Errorf("system: synthesize %q: %w", name, err)
		}
	}
	// Compile-phase timings and sizes land in the system registry.
	opts.Obs = s.reg
	c, err := pipeline.CompileCtx(ctx, flat, st.target, opts)
	if err != nil {
		return nil, fmt.Errorf("system: synthesize %q: %w", name, err)
	}
	// Predecode the engine once at synthesis time, off the serving hot
	// path (cache hits were warmed by Realize already).
	_, _ = c.Engine()
	if s.Cache != nil {
		if art, aerr := c.Artifact(); aerr == nil {
			// The disk commit runs behind the request: a cache write
			// failure (disk full, permissions) cannot fail the synthesis.
			s.Cache.PutCtx(ctx, key, art)
		}
	}
	return &entry{c: c, ref: flat, key: key, phys: st.phys}, nil
}

// cacheKey inlines the named kernel against the snapshot's library and
// derives the options its compile runs with and, when a cache is attached,
// the content-addressed artifact key ("" otherwise).
func (s *System) cacheKey(st *sysState, name string) (flat *ir.Kernel, opts pipeline.Options, key string, err error) {
	flat, err = opt.Inline(&ir.Program{Kernels: st.lib, Entry: name})
	if err != nil {
		return nil, opts, "", fmt.Errorf("system: inline %q: %v", name, err)
	}
	opts = s.Opts
	if s.Cache != nil {
		key = pipeline.KeyDigest(flat, st.targetDigest, opts)
	}
	return flat, opts, key, nil
}
