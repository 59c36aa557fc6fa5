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
// never stalls on the tool flow. The dispatch path is lock-free: the
// per-kernel records (kernel.go), the compiled-kernel map and the
// synthesis target live in an immutable snapshot behind an atomic pointer,
// so invocations of different (and identical) kernels proceed in parallel.
// The system lock guards only snapshot swaps and the masked hardware; a
// compile holds its kernel's compile lock, and only degradation
// (recover.go) compiles under the system lock. A per-kernel circuit
// breaker sheds repeatedly failing kernels to host-only execution with a
// half-open probe after a cool-down, and the recovery loop paces its
// re-execution attempts with exponential backoff plus jitter.
package system

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
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

// ErrConflict is Register's refusal of different source under a name
// already registered.
var ErrConflict = errors.New("kernel already registered with different source")

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
	// br is the kernel's circuit breaker (its record's).
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
	// gen counts degradations; a compile against an older generation is
	// stale and discarded instead of installed.
	gen uint64
	// kernels holds the per-kernel records, lib the same kernels' IR: the
	// call library inlining and the host interpreter resolve calls against.
	kernels  map[string]*kernel
	lib      map[string]*ir.Kernel
	compiled map[string]*entry
	// seq lists the installed kernels in install order (Stats).
	seq []string
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

// clone copies the snapshot for a swap that changes the compiled map.
func (st *sysState) clone() *sysState {
	ns := *st
	ns.compiled = maps.Clone(st.compiled)
	return &ns
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

	// mu guards every state-snapshot swap and the masked hardware below.
	// Only degradation holds it across a compile; nothing on the dispatch
	// path takes it.
	mu sync.Mutex
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
		deadPEs:         map[int]bool{},
		deadLinks:       map[[2]int]bool{},
		stop:            make(chan struct{}),
		reg:             obs.NewRegistry(),
	}
	s.state.Store(&sysState{
		kernels:      map[string]*kernel{},
		lib:          map[string]*ir.Kernel{},
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
// counters. It takes no lock, so InvokeHost, the brownout path, answers
// even while degradation holds the system lock; runHost adds the profiling.
func (s *System) execHost(ctx context.Context, name string, args map[string]int32, host *ir.Host) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("system: invocation of %q cancelled: %w", name, err)
	}
	lib := s.state.Load().lib
	k := lib[name]
	if k == nil {
		return nil, fmt.Errorf("system: unknown kernel %q", name)
	}
	sp := obs.ContextSpan(ctx).StartChild("engine")
	sp.Annotate("path", "host")
	base, err := amidar.ExecuteProgram(k, lib, amidar.DefaultCostModel(), args, host)
	sp.Finish()
	if err != nil {
		return nil, fmt.Errorf("system: AMIDAR run of %q: %v", name, err)
	}
	sp.Set("cycles", base.Cycles)
	s.ctr.amidarRuns.Add(1)
	s.ctr.amidarCycles.Add(base.Cycles)
	return &Result{LiveOuts: base.LiveOuts, Cycles: base.Cycles}, nil
}

// Register makes a kernel invocable; registered kernels also serve as the
// call library for each other (resolved by inlining at synthesis time).
// Registering the same source again is a no-op; different source under a
// registered name fails with ErrConflict.
func (s *System) Register(k *ir.Kernel) error {
	digest := k.Digest()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state.Load()
	if prev := st.kernels[k.Name]; prev != nil {
		if prev.digest == digest {
			return nil
		}
		return fmt.Errorf("system: kernel %q: %w", k.Name, ErrConflict)
	}
	ns := *st
	ns.kernels = maps.Clone(st.kernels)
	ns.kernels[k.Name] = s.newKernel(k, digest)
	ns.lib = maps.Clone(st.lib)
	ns.lib[k.Name] = k
	s.state.Store(&ns)
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
// InvokeCtx is safe for concurrent use and takes no system lock outside
// fault recovery; invocations of different kernels — and of the same
// kernel — proceed in parallel, and never wait behind a compile. The host
// heap passed in must not be shared between concurrent invocations.
func (s *System) InvokeCtx(ctx context.Context, name string, args map[string]int32, host *ir.Host) (*Result, error) {
	st := s.state.Load()
	k := st.kernels[name]
	if k == nil {
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
		return s.runHost(ctx, name, args, host, !k.hostOnly.Load())
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
			ref = s.state.Load().lib[name]
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

// Kernel returns the registered kernel of that name, or nil.
func (s *System) Kernel(name string) *ir.Kernel {
	return s.state.Load().lib[name]
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
// registry counters and the dispatch snapshot and takes no lock, so it is
// safe to call from a monitoring goroutine.
func (s *System) Stats() Stats {
	return Stats{
		Invocations:    s.ctr.invocations.Value(),
		AMIDARRuns:     s.ctr.amidarRuns.Value(),
		CGRARuns:       s.ctr.cgraRuns.Value(),
		AMIDARCycles:   s.ctr.amidarCycles.Value(),
		CGRACycles:     s.ctr.cgraCycles.Value(),
		SynthesizedSeq: slices.Clone(s.state.Load().seq),
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

// ErrIsDeadline reports whether an error was a deadline or cancellation
// abort rather than a genuine mapping or execution failure.
func ErrIsDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}
