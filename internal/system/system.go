// Package system closes the loop of the paper's Fig. 1: a host processor
// (the AMIDAR cost model) executes kernels under profiling; when a
// sequence's accumulated weight crosses the synthesis threshold, the tool
// flow maps it onto the CGRA — method inlining included — the "bytecode is
// patched", and every subsequent invocation transparently forwards to the
// accelerator ("Each time the AMIDAR processor enters one of these code
// sequences, the processor forwards the execution to the CGRA", §III).
// This is the online-synthesis model of the authors' prior work ([1], [18])
// that the paper's tool set plugs into.
//
// The system is a concurrent, deadline-aware service. Synthesis runs in a
// bounded background worker pool (one in-flight compile per kernel, each
// attempt under a compile deadline); the triggering invocation — and every
// concurrent arrival — keeps executing on the AMIDAR host until the
// accelerator version lands, exactly the paper's model of a host that
// never stalls on the tool flow. The hot dispatch path is lock-free: the
// kernel table, the compiled-kernel map and the synthesis target live in
// an immutable snapshot behind an atomic pointer, so invocations of
// different (and identical) kernels proceed in parallel. A per-kernel
// circuit breaker sheds repeatedly failing kernels to host-only execution
// with a half-open probe after a cool-down, and the recovery loop paces
// its re-execution attempts with exponential backoff plus jitter.
package system

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cgra/internal/amidar"
	"cgra/internal/arch"
	"cgra/internal/cache"
	"cgra/internal/fault"
	"cgra/internal/ir"
	"cgra/internal/obs"
	"cgra/internal/opt"
	"cgra/internal/pipeline"
	"cgra/internal/sim"
)

// Result reports one invocation through the system.
type Result struct {
	LiveOuts map[string]int32
	Cycles   int64
	// OnCGRA reports whether this invocation ran on the accelerator.
	OnCGRA bool
	// Synthesized reports whether this invocation crossed the profiling
	// threshold and enqueued background synthesis of the sequence. The
	// compiled version lands asynchronously; Quiesce waits for it.
	Synthesized bool
	// Recovered reports that a fault was detected during this invocation
	// and the reported result comes from a recovery path (a re-execution,
	// a degraded-array re-synthesis, or the host fallback).
	Recovered bool
	// Lanes is how many invocations the run coalescer served in one engine
	// pass with this one, itself included: 1 = it ran alone (0 = the
	// coalescer did not serve it; see batch.go).
	Lanes int
}

// Stats is a point-in-time snapshot of the system-level counters. The
// authoritative state lives in the system's metrics registry (see
// System.Metrics); Stats remains the convenient struct view.
type Stats struct {
	Invocations    int64
	AMIDARRuns     int64
	CGRARuns       int64
	AMIDARCycles   int64
	CGRACycles     int64
	SynthesizedSeq []string
	// FaultsInjected counts corruption events the armed fault plans applied,
	// cleared plans included.
	FaultsInjected int64
	// FaultsDetected counts CGRA runs rejected by the watchdog, the
	// simulator or the live-out/heap cross-check.
	FaultsDetected int64
	// Resyntheses counts successful re-compilations onto a degraded
	// composition.
	Resyntheses int64
	// Fallbacks counts invocations that completed on the AMIDAR host after
	// a detected fault.
	Fallbacks int64
	// SynthSheds counts synthesis requests dropped because the bounded
	// queue was full (admission control).
	SynthSheds int64
	// Retries counts accelerated re-execution attempts of the recovery
	// loop (each paced by exponential backoff + jitter).
	Retries int64
	// DeadlineHits counts synthesis attempts aborted by the compile
	// deadline.
	DeadlineHits int64
}

// TotalCycles is the cycles actually spent (host + accelerator).
func (s *Stats) TotalCycles() int64 { return s.AMIDARCycles + s.CGRACycles }

// The service policy. One synthesis attempt runs under compileDeadline: an
// expired deadline cancels the compile cooperatively (the scheduler checks
// it every time step) and counts as a synthesis failure. synthWorkers
// compile in the background behind a queue of synthQueue; requests beyond
// it are shed and re-admitted by a later profiled host run.
// breakerThreshold consecutive failures (synthesis failures or fault
// detections) trip a kernel's circuit breaker to host-only execution, and
// a tripped breaker admits a half-open probe after breakerCooldown.
// watchdogCap is what New sets System.WatchdogCycles to.
const (
	compileDeadline  = 10 * time.Second
	synthWorkers     = 2
	synthQueue       = 16
	breakerThreshold = 5
	breakerCooldown  = 250 * time.Millisecond
	watchdogCap      = 10_000_000
)

// The recovery loop's fixed policy: at most maxRetries accelerated
// re-executions per detected fault, paced by a backoff that starts at
// retryBackoff and doubles, with jitter, up to retryBackoffMax; then the
// host fallback. A profiled kernel's watchdog budget is watchdogFactor ×
// its largest host run: the accelerator is only deployed well below host
// cost, so a CGRA run past that is livelocked.
const (
	maxRetries      = 3
	retryBackoff    = 200 * time.Microsecond
	retryBackoffMax = 20 * time.Millisecond
	watchdogFactor  = 16
)

// entry is one compiled kernel as installed in the dispatch snapshot. It
// pins everything an accelerated run needs, so a run started on a stale
// snapshot stays internally consistent even while the array degrades.
type entry struct {
	c *pipeline.Compiled
	// ref is the inlined kernel the entry was built from; the cross-check
	// interprets it as the golden model.
	ref *ir.Kernel
	// key is the content-addressed cache key of the compilation (empty when
	// no cache is attached).
	key string
	// cacheSrc records where the entry came from: cache.SourceMemory,
	// cache.SourceDisk, or "" for a fresh compile.
	cacheSrc string
	// phys maps the entry's logical PE indices to physical PEs (nil =
	// identity, i.e. compiled for the undegraded array).
	phys []int
	// maxCycles is the per-kernel watchdog budget (see watchdogFactor).
	maxCycles int64
	// br is the kernel's circuit breaker (shared across entries).
	br *breaker
	// batchMu guards running, this artifact's runs in flight that hold a
	// coalescer slot, and open, the batch queued behind them (see batch.go).
	// A re-synthesis installs a new entry, so a new artifact starts with
	// free slots and no batch.
	batchMu sync.Mutex
	running int
	open    *batch
}

// sysState is the immutable dispatch snapshot behind the atomic pointer.
// Readers Load it once and work on a consistent view; writers clone,
// mutate and swap under the system lock.
type sysState struct {
	// gen counts degradations; a synthesis job compiled against an older
	// generation is stale and discarded instead of installed.
	gen      uint64
	kernels  map[string]*ir.Kernel
	compiled map[string]*entry
	// target is the composition synthesis currently aims at: the full
	// array, or the degraded composition once permanent faults were
	// masked. targetDigest is its Digest, computed once where the target
	// is set, so the cache key of a request costs no re-digest.
	target       *arch.Composition
	targetDigest string
	// phys maps the target's logical PE indices to physical PEs (nil =
	// identity).
	phys []int
}

func (st *sysState) clone() *sysState {
	return &sysState{
		gen:          st.gen,
		kernels:      maps.Clone(st.kernels),
		compiled:     maps.Clone(st.compiled),
		target:       st.target,
		targetDigest: st.targetDigest,
		phys:         st.phys,
	}
}

// System is one host processor with an attached CGRA, serving concurrent
// invocations.
type System struct {
	Comp *arch.Composition
	Opts pipeline.Options
	// Threshold is the accumulated host-cycle weight that triggers
	// synthesis of a sequence.
	Threshold int64
	// WatchdogCycles is the hard upper bound on the simulator cycle budget
	// per CGRA run (New sets 10M). Kernels with a host profile get a far
	// tighter per-kernel budget (see watchdogFactor). Configure it before
	// the first invocation.
	WatchdogCycles int64
	// Cache, when non-nil, is consulted before every synthesis and receives
	// every fresh compile's artifact. Configure it before the first
	// invocation.
	Cache *cache.Store
	// CompileHook, when non-nil, runs at the start of every fresh compile
	// (after the cache was consulted and missed). A returned error fails
	// the synthesis attempt like a compiler error; the hook may also stall
	// under ctx to model a slow toolchain. The chaos injector plugs in
	// here. Configure it before the first invocation.
	CompileHook func(ctx context.Context, kernel string) error

	// state is the lock-free dispatch snapshot consulted by every
	// invocation.
	state atomic.Pointer[sysState]
	// plan is the armed fault plan (nil pointer = fault-free hardware).
	plan atomic.Pointer[armedPlan]

	// New sets the first three to the policy constants and leaves
	// crossCheck off; only tests change them, before the first invocation.
	// crossCheck checks every CGRA run against the reference interpreter,
	// as an armed fault plan does.
	compileDeadline          time.Duration
	synthWorkers, synthQueue int
	crossCheck               bool

	// mu guards the profiling and recovery bookkeeping below plus every
	// state-snapshot swap. The hot dispatch path (already-synthesized
	// kernel, no fault) never takes it.
	mu      sync.Mutex
	weights map[string]int64
	// hostRuns / hostMaxCycles profile the AMIDAR cost per kernel; the
	// per-kernel watchdog budget derives from them.
	hostRuns      map[string]int64
	hostMaxCycles map[string]int64
	// hostOnly marks kernels the (degraded) array can definitively not
	// map; they execute on the host permanently. Transient failures go
	// through the circuit breaker instead.
	hostOnly map[string]bool
	// pendingSynth implements singleflight: at most one queued or running
	// synthesis job per kernel.
	pendingSynth map[string]bool
	breakers     map[string]*breaker
	// deadPEs / deadLinks accumulate masked hardware, in physical indices.
	deadPEs   map[int]bool
	deadLinks map[[2]int]bool

	// Synthesis worker pool (see synth.go).
	poolOnce sync.Once
	queue    chan synthJob
	stop     chan struct{}
	jobs     sync.WaitGroup
	closed   atomic.Bool

	// reg holds the authoritative counters plus compile-phase metrics of
	// every synthesis run.
	reg *obs.Registry
	ctr sysCounters
	// co is the run coalescer's queueing cap, run limit and counters (nil =
	// coalescing off; see CoalesceRuns).
	co *coalescer
	// seqMu guards synthSeq so Stats can snapshot it without taking mu.
	seqMu    sync.Mutex
	synthSeq []string
}

// sysCounters holds the registry handles behind Stats, resolved once at
// construction.
type sysCounters struct {
	invocations    *obs.Counter
	amidarRuns     *obs.Counter
	cgraRuns       *obs.Counter
	amidarCycles   *obs.Counter
	cgraCycles     *obs.Counter
	faultsDetected *obs.Counter
	resyntheses    *obs.Counter
	fallbacks      *obs.Counter
	faultsInjected *obs.Gauge
	queueDepth     *obs.Gauge
	sheds          *obs.Counter
	retries        *obs.Counter
	deadlineHits   *obs.Counter
}

// New builds a system around a composition. The daemon synthesizes ahead of
// any invocation, so there are no representative inputs to time the "auto"
// backend's arms with — auto is normalized to the list backend here (pick
// "modulo" explicitly to pipeline served kernels).
func New(comp *arch.Composition, opts pipeline.Options, threshold int64) *System {
	if opts.Backend == pipeline.BackendAuto {
		opts.Backend = ""
	}
	if opts.Sched.Backend == pipeline.BackendAuto {
		opts.Sched.Backend = ""
	}
	s := &System{
		Comp:            comp,
		Opts:            opts,
		Threshold:       threshold,
		WatchdogCycles:  watchdogCap,
		compileDeadline: compileDeadline,
		synthWorkers:    synthWorkers,
		synthQueue:      synthQueue,
		weights:         map[string]int64{},
		hostRuns:        map[string]int64{},
		hostMaxCycles:   map[string]int64{},
		hostOnly:        map[string]bool{},
		pendingSynth:    map[string]bool{},
		breakers:        map[string]*breaker{},
		deadPEs:         map[int]bool{},
		deadLinks:       map[[2]int]bool{},
		stop:            make(chan struct{}),
		reg:             obs.NewRegistry(),
	}
	s.state.Store(&sysState{
		kernels:      map[string]*ir.Kernel{},
		compiled:     map[string]*entry{},
		target:       comp,
		targetDigest: comp.Digest(),
	})
	s.reg.Help("cgra_system_invocations_total", "kernel invocations through the system")
	s.reg.Help("cgra_system_runs_total", "executions by engine (amidar host or cgra)")
	s.reg.Help("cgra_system_cycles_total", "cycles spent by engine (amidar host or cgra)")
	s.reg.Help("cgra_system_faults_detected_total", "CGRA runs rejected by watchdog, simulator or cross-check")
	s.reg.Help("cgra_system_resyntheses_total", "successful re-compilations onto a degraded composition")
	s.reg.Help("cgra_system_fallbacks_total", "invocations completed on the host after a detected fault")
	s.reg.Help("cgra_synth_queue_depth", "synthesis jobs currently queued")
	s.reg.Help("cgra_synth_shed_total", "synthesis requests dropped by the bounded queue")
	s.reg.Help("cgra_synth_jobs_total", "completed synthesis jobs by result (ok, error, deadline, stale)")
	s.reg.Help("cgra_recovery_retries_total", "accelerated re-execution attempts of the recovery loop")
	s.reg.Help("cgra_compile_deadline_hits_total", "synthesis attempts aborted by the compile deadline")
	s.reg.Help("cgra_breaker_state", "per-kernel circuit breaker state (0 closed, 1 open, 2 half-open)")
	s.reg.Help("cgra_breaker_transitions_total", "circuit breaker transitions by kernel and target state")
	s.ctr = sysCounters{
		invocations:    s.reg.Counter("cgra_system_invocations_total"),
		amidarRuns:     s.reg.Counter("cgra_system_runs_total", obs.L("engine", "amidar")),
		cgraRuns:       s.reg.Counter("cgra_system_runs_total", obs.L("engine", "cgra")),
		amidarCycles:   s.reg.Counter("cgra_system_cycles_total", obs.L("engine", "amidar")),
		cgraCycles:     s.reg.Counter("cgra_system_cycles_total", obs.L("engine", "cgra")),
		faultsDetected: s.reg.Counter("cgra_system_faults_detected_total"),
		resyntheses:    s.reg.Counter("cgra_system_resyntheses_total"),
		fallbacks:      s.reg.Counter("cgra_system_fallbacks_total"),
		faultsInjected: s.reg.Gauge("cgra_system_faults_injected"),
		queueDepth:     s.reg.Gauge("cgra_synth_queue_depth"),
		sheds:          s.reg.Counter("cgra_synth_shed_total"),
		retries:        s.reg.Counter("cgra_recovery_retries_total"),
		deadlineHits:   s.reg.Counter("cgra_compile_deadline_hits_total"),
	}
	return s
}

// Metrics returns the system's registry: invocation counters, per-engine
// cycles, fault/recovery counters, queue and breaker gauges, and the
// compile-phase metrics of the most recent synthesis. Safe to scrape
// concurrently with invocations.
func (s *System) Metrics() *obs.Registry { return s.reg }

// armedPlan is an armed fault plan's injector and how many of its
// injections the system has already added to cgra_system_faults_injected.
type armedPlan struct {
	inj     *fault.Injector
	counted atomic.Int64
}

// injector is the plan's injector; nil when no plan is armed.
func (p *armedPlan) injector() *fault.Injector {
	if p == nil {
		return nil
	}
	return p.inj
}

// count adds the injections this plan applied since it was last counted to
// total. Every run on the plan counts after it ends, so an injection is
// counted once, even by a run that ends after ClearFaults, and total never
// goes back.
func (p *armedPlan) count(total *obs.Gauge) {
	n := p.inj.Injections()
	for {
		c := p.counted.Load()
		if n <= c {
			return
		}
		if p.counted.CompareAndSwap(c, n) {
			total.Add(float64(n - c))
			return
		}
	}
}

// InjectFaults arms a deterministic fault plan against the system's CGRA,
// in place of any armed one. Must be called before the affected
// invocations; the plan stays armed until ClearFaults.
func (s *System) InjectFaults(plan fault.Plan) error {
	inj, err := fault.NewInjector(plan, s.Comp.NumPEs())
	if err != nil {
		return fmt.Errorf("system: %v", err)
	}
	s.plan.Store(&armedPlan{inj: inj})
	return nil
}

// ClearFaults disarms the hardware fault plan: subsequent runs execute on
// fault-free hardware. Already-masked permanent damage stays masked (the
// degraded composition remains the synthesis target); this only stops new
// corruption, for the recovery phase of a chaos soak.
func (s *System) ClearFaults() {
	s.plan.Store(nil)
}

// InvokeHost executes one invocation directly on the AMIDAR host
// interpreter, bypassing the accelerator, the profiler and the synthesis
// machinery entirely. It is the server's brownout path: always available,
// never queued behind a compile, immune to accelerator faults.
func (s *System) InvokeHost(ctx context.Context, name string, args map[string]int32, host *ir.Host) (*Result, error) {
	res, err := s.execHost(ctx, name, args, host)
	if err == nil {
		s.ctr.invocations.Add(1)
	}
	return res, err
}

// execHost is the one AMIDAR execution: run, "engine" span, run and cycle
// counters. It must never take s.mu — InvokeHost is the brownout path and
// has to answer while a compile holds the lock; runHost adds the profiling
// that needs it.
func (s *System) execHost(ctx context.Context, name string, args map[string]int32, host *ir.Host) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("system: invocation of %q cancelled: %w", name, err)
	}
	kernels := s.state.Load().kernels
	k := kernels[name]
	if k == nil {
		return nil, fmt.Errorf("system: unknown kernel %q", name)
	}
	sp := obs.ContextSpan(ctx).StartChild("engine")
	sp.Annotate("path", "host")
	base, err := amidar.ExecuteProgram(k, kernels, amidar.DefaultCostModel(), args, host)
	sp.Finish()
	if err != nil {
		return nil, fmt.Errorf("system: AMIDAR run of %q: %v", name, err)
	}
	sp.Set("cycles", base.Cycles)
	s.ctr.amidarRuns.Add(1)
	s.ctr.amidarCycles.Add(base.Cycles)
	return &Result{LiveOuts: base.LiveOuts, Cycles: base.Cycles}, nil
}

// OpenBreakers lists the kernels whose circuit breaker is currently not
// closed (open or half-open), sorted — the readiness endpoint's view of
// which kernels are being shed to the host.
func (s *System) OpenBreakers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for name, b := range s.breakers {
		if b.current() != brClosed {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// DegradedComposition returns the composition synthesis currently targets
// when hardware has been masked, or nil while the full array is in use.
func (s *System) DegradedComposition() *arch.Composition {
	st := s.state.Load()
	if st.target == s.Comp {
		return nil
	}
	return st.target
}

// MaskedPEs returns the physical indices of PEs masked by degradation.
func (s *System) MaskedPEs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for pe := range s.deadPEs {
		out = append(out, pe)
	}
	sort.Ints(out)
	return out
}

// Register makes a kernel invocable; registered kernels also serve as the
// call library for each other (resolved by inlining at synthesis time).
func (s *System) Register(k *ir.Kernel) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state.Load()
	if _, dup := st.kernels[k.Name]; dup {
		return fmt.Errorf("system: kernel %q already registered", k.Name)
	}
	ns := st.clone()
	ns.kernels[k.Name] = k
	s.state.Store(ns)
	return nil
}

// Invoke executes one kernel invocation with no caller deadline.
func (s *System) Invoke(name string, args map[string]int32, host *ir.Host) (*Result, error) {
	return s.InvokeCtx(context.Background(), name, args, host)
}

// InvokeCtx executes one kernel invocation: on the CGRA when the sequence
// has been synthesized, otherwise on the host — enqueuing background
// synthesis when the profile weight crosses the threshold. Detected
// accelerator faults are recovered transparently (retries with backoff,
// degraded re-synthesis, host fallback); InvokeCtx returns an error only
// for caller mistakes (unknown kernel, bad arguments), host-side failures,
// or a cancelled context. With CoalesceRuns on, an invocation that finds
// its installed entry at the run limit queues, for at most the window, and
// runs as one lane of a shared engine pass (Result.Lanes; see batch.go);
// below the limit it runs at once.
//
// InvokeCtx is safe for concurrent use and the hot path (synthesized
// kernel, fault-free hardware) is lock-free; invocations of different
// kernels — and of the same kernel — proceed in parallel. The host heap
// passed in must not be shared between concurrent invocations.
func (s *System) InvokeCtx(ctx context.Context, name string, args map[string]int32, host *ir.Host) (*Result, error) {
	st := s.state.Load()
	if st.kernels[name] == nil {
		return nil, fmt.Errorf("system: unknown kernel %q", name)
	}
	ctx, sp := obs.StartSpanCtx(ctx, "system.invoke")
	defer sp.Finish()
	s.ctr.invocations.Add(1)

	// The dispatch lookup is the serving-path cache decision: an installed
	// compiled entry means the request skips the whole tool flow.
	ent := st.compiled[name]
	lk := sp.StartChild("cache.lookup")
	if ent != nil {
		lk.Annotate("source", "installed")
	} else {
		lk.Annotate("source", "none")
	}
	lk.Finish()

	eng := s.admitLane(ent)
	switch {
	case ent == nil:
		return s.runHost(ctx, name, args, host, !s.isHostOnly(name))
	case !ent.br.allow(time.Now(), breakerCooldown):
		// Breaker open: shed to the host without profiling (the kernel
		// is already synthesized; re-synthesis is not what it needs).
		sp.Event("breaker_open_shed", "breaker open: serving on host")
		return s.runHost(ctx, name, args, host, false)
	case eng != nil:
		return s.coalesce(ctx, name, ent, eng, args, host)
	}
	return s.runSolo(ctx, name, ent, args, host)
}

// runSolo is one accelerated run on its own, recovered on a detected fault.
func (s *System) runSolo(ctx context.Context, name string, ent *entry, args map[string]int32, host *ir.Host) (*Result, error) {
	res, err := s.runAccelerated(ctx, name, ent, args, host)
	if err != nil {
		return s.recoverInvocation(ctx, name, err, args, host)
	}
	ent.br.success()
	return res, nil
}

func (s *System) isHostOnly(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hostOnly[name]
}

// breakerFor returns (creating on demand) the named kernel's breaker.
func (s *System) breakerFor(name string) *breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.breakerForLocked(name)
}

func (s *System) breakerForLocked(name string) *breaker {
	b := s.breakers[name]
	if b == nil {
		stateG := s.reg.Gauge("cgra_breaker_state", obs.L("kernel", name))
		stateG.SetInt(int64(brClosed))
		b = &breaker{notify: func(to breakerState) {
			stateG.SetInt(int64(to))
			s.reg.Counter("cgra_breaker_transitions_total",
				obs.L("kernel", name), obs.L("to", to.String())).Inc()
		}}
		s.breakers[name] = b
	}
	return b
}

// BreakerState reports the named kernel's circuit-breaker state:
// "closed", "open" or "half_open".
func (s *System) BreakerState(name string) string {
	return s.breakerFor(name).current().String()
}

// runHost executes on the AMIDAR host; when profile is true the profiler
// accumulates the kernel's weight and may enqueue background synthesis.
func (s *System) runHost(ctx context.Context, name string, args map[string]int32, host *ir.Host, profile bool) (*Result, error) {
	result, err := s.execHost(ctx, name, args, host)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.hostRuns[name]++
	if result.Cycles > s.hostMaxCycles[name] {
		s.hostMaxCycles[name] = result.Cycles
	}
	if !profile {
		return result, nil
	}
	s.weights[name] += result.Cycles
	if s.weights[name] < s.Threshold || s.hostOnly[name] || s.pendingSynth[name] {
		return result, nil
	}
	if cur := s.state.Load(); cur.compiled[name] != nil {
		return result, nil
	}
	br := s.breakerForLocked(name)
	if !br.allow(time.Now(), breakerCooldown) {
		return result, nil
	}
	if s.enqueueSynthLocked(name) {
		result.Synthesized = true
		obs.EventCtx(ctx, "synth_enqueued", name)
	} else {
		br.cancelProbe()
	}
	return result, nil
}

// runAccelerated performs one CGRA run with the watchdog and (when armed
// or configured) the reference cross-check. The caller's heap is only
// mutated when the run is accepted, so a rejected run leaves clean state
// for the retry.
func (s *System) runAccelerated(ctx context.Context, name string, ent *entry, args map[string]int32, host *ir.Host) (*Result, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "cgra.run")
	defer sp.Finish()
	plan := s.plan.Load()
	// Machine attaches the memoized predecoded engine; a live fault plan in
	// Inject hooks into the same walk.
	m := ent.c.Machine()
	m.Inject = plan.injector()
	m.PhysPE = ent.phys
	m.MaxCycles = ent.maxCycles
	scratch := host.Clone()
	res, err := m.RunCtx(ctx, args, scratch)
	if plan != nil {
		plan.count(s.ctr.faultsInjected)
	}
	if err != nil {
		return nil, fmt.Errorf("system: CGRA run of %q: %w", name, err)
	}
	if s.crossCheck || plan != nil {
		cc := sp.StartChild("crosscheck")
		defer cc.Finish()
		ref := ent.ref
		if ref == nil {
			ref = s.state.Load().kernels[name]
		}
		refHost := host.Clone()
		refOuts, err := (&ir.Interp{}).Run(ref, args, refHost)
		if err != nil {
			return nil, fmt.Errorf("system: cross-check reference of %q: %v", name, err)
		}
		if err := ir.Compare(refOuts, refHost, res.LiveOuts, scratch); err != nil {
			return nil, fmt.Errorf("system: cross-check of %q: %w", name, err)
		}
	}
	out := s.accept(host, scratch, res)
	sp.Set("cycles", out.Cycles)
	return out, nil
}

// accept is the one accept step of a CGRA run, solo or lane: commit the
// scratch heap into the caller's, count the run, build the Result.
func (s *System) accept(host, scratch *ir.Host, res *sim.Result) *Result {
	for arr, data := range scratch.Arrays {
		copy(host.Arrays[arr], data)
	}
	cycles := res.TotalCycles()
	s.ctr.cgraRuns.Add(1)
	s.ctr.cgraCycles.Add(cycles)
	return &Result{LiveOuts: res.LiveOuts, Cycles: cycles, OnCGRA: true}
}

// cycleBudgetLocked derives the per-kernel watchdog budget from the AMIDAR
// host-cycle profile: watchdogFactor × the largest observed host run,
// clamped to [50k, WatchdogCycles]. The accelerator is only deployed when
// it beats the host by a wide margin, so a CGRA run burning a multiple of
// the host cost is livelocked and the watchdog converts it into a detected
// fault quickly — instead of burning the global 10M-cycle default.
func (s *System) cycleBudgetLocked(name string) int64 {
	cap := s.WatchdogCycles
	est := s.hostMaxCycles[name]
	if est <= 0 {
		return cap
	}
	budget := watchdogFactor * est
	const floor = 50_000
	if budget < floor {
		budget = floor
	}
	if budget > cap {
		budget = cap
	}
	return budget
}

// recoverInvocation is the one fault step of a rejected CGRA run, solo or
// lane. A cancelled caller is not a hardware fault and gets the error
// back. Any other rejection, and each failed retry after it, is counted
// and charged to the breaker; the recovery policy masks newly diagnosed
// permanent faults and re-synthesizes onto the degraded composition,
// re-executes up to the retry cap — each attempt paced by exponential
// backoff with jitter — and finally falls back to host execution.
func (s *System) recoverInvocation(ctx context.Context, name string, fault error, args map[string]int32, host *ir.Host) (*Result, error) {
	if ctx.Err() != nil {
		return nil, fault
	}
	ctx, sp := obs.StartSpanCtx(ctx, "recover")
	defer sp.Finish()
	br := s.breakerFor(name)
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		s.ctr.faultsDetected.Add(1)
		sp.Event("fault_detected", fault.Error())
		br.failure(time.Now(), breakerThreshold)
		if attempt >= maxRetries || sleepCtx(ctx, jitter(backoff)) != nil {
			break
		}
		if backoff *= 2; backoff > retryBackoffMax {
			backoff = retryBackoffMax
		}
		s.mu.Lock()
		if perm := s.newPermanentFaultsLocked(); len(perm) > 0 {
			sp.Event("degrade", fmt.Sprintf("masking %d permanent fault(s)", len(perm)))
			if !s.degradeLocked(perm) {
				// The surviving array is unusable: permanent host fallback.
				s.dropCompiledLocked(name)
				s.hostOnly[name] = true
				s.mu.Unlock()
				break
			}
			if err := s.resynthesizeLocked(ctx, name); err != nil {
				// The degraded array cannot map the kernel: permanent host
				// fallback — unless the compile merely hit its deadline, in
				// which case a later profiled run may retry synthesis.
				if !ErrIsDeadline(err) {
					s.hostOnly[name] = true
				}
				s.mu.Unlock()
				break
			}
		}
		ent := s.state.Load().compiled[name]
		s.mu.Unlock()
		if ent == nil {
			break
		}
		if !br.allow(time.Now(), breakerCooldown) {
			break
		}
		s.ctr.retries.Add(1)
		sp.Event("retry", fmt.Sprintf("accelerated re-execution attempt %d", attempt+1))
		res, err := s.runAccelerated(ctx, name, ent, args, host)
		if err == nil {
			br.success()
			res.Recovered = true
			return res, nil
		}
		if ctx.Err() != nil {
			break
		}
		fault = err
	}
	s.ctr.fallbacks.Add(1)
	sp.Event("host_fallback", "recovery exhausted: serving on host")
	res, err := s.runHost(ctx, name, args, host, false)
	if err != nil {
		return nil, err
	}
	res.Recovered = true
	return res, nil
}

// jitter spreads a backoff delay over [d/2, d) so concurrent recoveries
// desynchronize instead of hammering the array in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)))
}

// sleepCtx sleeps for d or until the context is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// newPermanentFaultsLocked lists manifested permanent faults not yet
// masked.
func (s *System) newPermanentFaultsLocked() []fault.Fault {
	var out []fault.Fault
	for _, f := range s.plan.Load().injector().ManifestedPermanent() {
		switch f.Kind {
		case fault.PermanentPE:
			if !s.deadPEs[f.PE] {
				out = append(out, f)
			}
		case fault.BrokenLink:
			if !s.deadLinks[[2]int{f.Src, f.Dst}] {
				out = append(out, f)
			}
		}
	}
	return out
}

// degradeLocked masks the given faults out of the array and recomputes the
// synthesis target (all-pairs routing is rebuilt by the scheduler on the
// new composition). Every compiled kernel targeted the old array, so the
// dispatch entries are dropped and the generation bumped: in-flight
// synthesis jobs against the old target land stale and are discarded.
// Returns false when the surviving array is unusable.
func (s *System) degradeLocked(faults []fault.Fault) bool {
	for _, f := range faults {
		switch f.Kind {
		case fault.PermanentPE:
			s.deadPEs[f.PE] = true
		case fault.BrokenLink:
			s.deadLinks[[2]int{f.Src, f.Dst}] = true
		}
	}
	d, err := arch.Degrade(s.Comp, s.deadPEs, s.deadLinks)
	if err != nil {
		return false
	}
	cur := s.state.Load()
	s.state.Store(&sysState{
		gen:          cur.gen + 1,
		kernels:      cur.kernels,
		compiled:     map[string]*entry{},
		target:       d.Comp,
		targetDigest: d.Comp.Digest(),
		phys:         d.PhysOf,
	})
	return true
}

func (s *System) dropCompiledLocked(name string) {
	cur := s.state.Load()
	if cur.compiled[name] == nil {
		return
	}
	ns := cur.clone()
	delete(ns.compiled, name)
	s.state.Store(ns)
}

// resynthesizeLocked recompiles one kernel onto the current (degraded)
// target, synchronously — degradation is a stop-the-world event and the
// invocation being recovered needs the result. The compile still honors
// the deadline.
func (s *System) resynthesizeLocked(ctx context.Context, name string) error {
	ctx, cancel := s.compileCtx(ctx)
	defer cancel()
	ent, err := s.compileKernel(ctx, name)
	if err != nil {
		return err
	}
	s.installLocked(name, ent)
	s.ctr.resyntheses.Add(1)
	return nil
}

// compileCtx derives the compile-deadline context for one synthesis
// attempt. The caller defers the cancel, so a finished attempt releases its
// deadline timer at once instead of holding it for the whole deadline.
func (s *System) compileCtx(parent context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, s.compileDeadline)
}

// compileKernel runs the tool flow for the kernel (inlining its calls
// against the registered library) targeting the current snapshot's
// composition. When a cache is attached it is consulted first — a hit
// realizes the stored artifact instead of compiling, and a fresh compile's
// artifact is stored back. It takes no locks and is called from the worker
// pool and — under the system lock — from the recovery path. A compiler
// panic is converted into an error so a worker goroutine never dies.
func (s *System) compileKernel(ctx context.Context, name string) (ent *entry, err error) {
	defer func() {
		if r := recover(); r != nil {
			ent, err = nil, fmt.Errorf("system: internal error synthesizing %q: %v", name, r)
		}
	}()
	st := s.state.Load()
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
			// A stored artifact that no longer realizes (version skew across
			// a binary upgrade) falls through to a fresh compile, which
			// overwrites the entry.
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
			// A cache write failure (disk full, permissions) must not fail
			// the synthesis: the compiled entry is good.
			_ = s.Cache.PutCtx(ctx, key, art)
		}
	}
	return &entry{c: c, ref: flat, key: key, phys: st.phys}, nil
}

// cacheKey inlines the named kernel against the snapshot's library and
// derives the options its compile runs with and, when a cache is attached,
// the content-addressed artifact key ("" otherwise).
func (s *System) cacheKey(st *sysState, name string) (flat *ir.Kernel, opts pipeline.Options, key string, err error) {
	flat, err = opt.Inline(&ir.Program{Kernels: st.kernels, Entry: name})
	if err != nil {
		return nil, opts, "", fmt.Errorf("system: inline %q: %v", name, err)
	}
	opts = s.Opts
	if s.Cache != nil {
		key = pipeline.KeyDigest(flat, st.targetDigest, opts)
	}
	return flat, opts, key, nil
}

// installLocked patches the dispatch snapshot with a freshly compiled
// kernel.
func (s *System) installLocked(name string, ent *entry) {
	ent.maxCycles = s.cycleBudgetLocked(name)
	ent.br = s.breakerForLocked(name)
	cur := s.state.Load()
	ns := cur.clone()
	ns.compiled[name] = ent
	s.state.Store(ns)
	s.seqMu.Lock()
	s.synthSeq = append(s.synthSeq, name)
	s.seqMu.Unlock()
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
// waited for a concurrent synthesis of the same kernel to land.
func (s *System) SynthesizeCtx(ctx context.Context, name string) (*SynthInfo, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "system.synthesize")
	defer sp.Finish()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state.Load().kernels[name] == nil {
		return nil, fmt.Errorf("system: unknown kernel %q", name)
	}
	if ent := s.state.Load().compiled[name]; ent != nil {
		sp.Annotate("source", "installed")
		info := synthInfo(name, ent, 0)
		info.CacheSource = "installed"
		return info, nil
	}
	start := time.Now()
	cctx, cancel := s.compileCtx(ctx)
	defer cancel()
	ent, err := s.compileKernel(cctx, name)
	if err != nil {
		return nil, err
	}
	s.installLocked(name, ent)
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

// Kernel returns the registered kernel of that name, or nil.
func (s *System) Kernel(name string) *ir.Kernel {
	return s.state.Load().kernels[name]
}

// Kernels lists the registered kernel names, sorted.
func (s *System) Kernels() []string {
	st := s.state.Load()
	out := make([]string, 0, len(st.kernels))
	for name := range st.kernels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of the accumulated counters. It reads atomic
// registry counters and never blocks behind a running invocation, so it is
// safe to call from a monitoring goroutine.
func (s *System) Stats() Stats {
	s.seqMu.Lock()
	seq := append([]string(nil), s.synthSeq...)
	s.seqMu.Unlock()
	return Stats{
		Invocations:    s.ctr.invocations.Value(),
		AMIDARRuns:     s.ctr.amidarRuns.Value(),
		CGRARuns:       s.ctr.cgraRuns.Value(),
		AMIDARCycles:   s.ctr.amidarCycles.Value(),
		CGRACycles:     s.ctr.cgraCycles.Value(),
		SynthesizedSeq: seq,
		FaultsInjected: int64(s.ctr.faultsInjected.Value()),
		FaultsDetected: s.ctr.faultsDetected.Value(),
		Resyntheses:    s.ctr.resyntheses.Value(),
		Fallbacks:      s.ctr.fallbacks.Value(),
		SynthSheds:     s.ctr.sheds.Value(),
		Retries:        s.ctr.retries.Value(),
		DeadlineHits:   s.ctr.deadlineHits.Value(),
	}
}

// Synthesized reports whether the named kernel runs on the CGRA.
func (s *System) Synthesized(name string) bool {
	return s.state.Load().compiled[name] != nil
}

// Profile lists the host-cycle weights observed so far, heaviest first.
func (s *System) Profile() []struct {
	Name   string
	Cycles int64
} {
	s.mu.Lock()
	defer s.mu.Unlock()
	type row struct {
		Name   string
		Cycles int64
	}
	var rows []row
	for name, w := range s.weights {
		rows = append(rows, row{name, w})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Cycles != rows[j].Cycles {
			return rows[i].Cycles > rows[j].Cycles
		}
		return rows[i].Name < rows[j].Name
	})
	out := make([]struct {
		Name   string
		Cycles int64
	}, len(rows))
	for i, r := range rows {
		out[i] = struct {
			Name   string
			Cycles int64
		}{r.Name, r.Cycles}
	}
	return out
}

// ErrIsDeadline reports whether an error was a deadline or cancellation
// abort rather than a genuine mapping or execution failure.
func ErrIsDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}
