// Package pipeline drives the complete synthesis flow of the paper's Fig. 1
// and Fig. 10: kernel IR → optional optimizations (loop unrolling, CSE) →
// CDFG → scheduling and binding → RF/C-Box allocation → context generation,
// plus execution of the result on the cycle-accurate simulator.
//
// This is the library's primary entry point:
//
//	comp, _ := arch.HomogeneousMesh(9, 2)
//	c, err := pipeline.Compile(kernel, comp, pipeline.Options{UnrollFactor: 2})
//	res, err := c.Run(args, host)
package pipeline

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"cgra/internal/arch"
	"cgra/internal/cdfg"
	"cgra/internal/ctxgen"
	"cgra/internal/ir"
	"cgra/internal/obs"
	"cgra/internal/opt"
	"cgra/internal/sched"
	"cgra/internal/sim"
)

// Options tunes the flow; the zero value reproduces the paper's defaults
// except unrolling (the paper's headline numbers use UnrollFactor 2).
type Options struct {
	// Backend selects the scheduling strategy: "list" (default), "modulo"
	// (software-pipeline eligible innermost loops, forces UnrollFactor 1 so
	// counter steps stay +1), or "auto" (compile both, install whichever
	// verifies faster — only via CompileAutoCtx, which needs representative
	// inputs). Takes precedence over Sched.Backend when non-empty.
	Backend string
	// UnrollFactor partially unrolls innermost loops (0/1 = off).
	UnrollFactor int
	// CSE enables common subexpression elimination.
	CSE bool
	// ConstFold folds constant expressions (on by default in Defaults()).
	ConstFold bool
	// Build tunes CDFG construction.
	Build cdfg.BuildOptions
	// Sched tunes the scheduler.
	Sched sched.Options
	// Obs, when non-nil, receives compile-phase wall times and size
	// metrics (as cgra_compile_phase_* gauges) after every Compile call.
	// Independently of Obs, Compiled.Trace carries the raw span tree.
	Obs *obs.Registry
}

// Defaults returns the configuration used for the paper's evaluation:
// inner loops unrolled with a maximum factor of 2, CSE and constant folding
// on (Fig. 1 lists them as optional steps of the synthesis flow).
func Defaults() Options {
	return Options{UnrollFactor: 2, CSE: true, ConstFold: true}
}

// BackendAuto selects per kernel: both backends compile and run on
// representative inputs, the faster verified result wins (list on ties and
// on any modulo failure). Only CompileAutoCtx implements it; a plain Compile
// has no inputs to verify with and rejects it.
const BackendAuto = "auto"

// ParseBackend validates a backend name from a flag or config; the empty
// string resolves to the list backend. It accepts everything sched
// registers plus "auto", so command-line parsing fails fast with the valid
// choices spelled out.
func ParseBackend(name string) (string, error) {
	if name == BackendAuto {
		return BackendAuto, nil
	}
	canonical, err := sched.BackendByName(name)
	if err != nil {
		return "", fmt.Errorf("pipeline: unknown backend %q (valid: %s, auto)",
			name, strings.Join(sched.Backends(), ", "))
	}
	return canonical, nil
}

// resolveBackend folds Options.Backend into the scheduler options and
// applies backend-specific constraints (modulo pipelining requires the
// original +1 counter step, so unrolling is forced off).
func resolveBackend(o Options) (Options, error) {
	name := o.Backend
	if name == "" {
		name = o.Sched.Backend
	}
	name, err := ParseBackend(name)
	if err != nil {
		return o, err
	}
	if name == BackendAuto {
		return o, fmt.Errorf("pipeline: the auto backend needs representative inputs; use CompileAutoCtx")
	}
	o.Backend = name
	o.Sched.Backend = name
	if name == sched.BackendModulo {
		o.UnrollFactor = 1
	}
	return o, nil
}

// Compiled bundles every artifact of one synthesis run.
type Compiled struct {
	// Kernel is the post-optimization IR.
	Kernel *ir.Kernel
	// Graph is the scheduled CDFG.
	Graph *cdfg.Graph
	// Schedule is the placed and routed schedule.
	Schedule *sched.Schedule
	// Program holds the generated contexts and allocation results.
	Program *ctxgen.Program
	// Trace is the compile-phase span tree (timings and size metrics per
	// phase). Always populated, even without an Options.Obs registry.
	Trace *obs.Span

	// engine memoizes the predecoded simulator engine of Program, so
	// repeated runs of one compiled kernel (the daemon's serving hot path)
	// decode the context stream exactly once.
	engineOnce sync.Once
	engine     *sim.Decoded
	engineErr  error
}

// Engine returns the predecoded engine of the compiled program, decoding it
// on first use and memoizing the result. An error means the program holds
// a construct Predecode cannot pre-resolve; every run of it fails with
// that error.
func (c *Compiled) Engine() (*sim.Decoded, error) {
	c.engineOnce.Do(func() {
		c.engine, c.engineErr = sim.Predecode(c.Program)
	})
	return c.engine, c.engineErr
}

// Machine builds a simulator for the compiled program with the memoized
// engine attached when available. Instrumentation (Probe, Trace) or a fault
// plan attached to the returned machine hooks into the same engine walk.
func (c *Compiled) Machine() *sim.Machine {
	m := sim.New(c.Program)
	if d, err := c.Engine(); err == nil {
		m.Engine = d
	}
	return m
}

// CompileProgram inlines every kernel call of the program's entry kernel
// (the paper's optional "method inlining" step, Fig. 1) and compiles the
// result.
func CompileProgram(prog *ir.Program, comp *arch.Composition, o Options) (*Compiled, error) {
	return CompileProgramCtx(context.Background(), prog, comp, o)
}

// CompileProgramCtx is CompileProgram honoring a context. The panic guard
// covers the whole flow — inliner included — so an invariant violation in
// any phase reaches callers (in particular the online-synthesis recovery
// loop) as an error, never a crash.
func CompileProgramCtx(ctx context.Context, prog *ir.Program, comp *arch.Composition, o Options) (c *Compiled, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, err = nil, fmt.Errorf("pipeline: internal error compiling program: %v", r)
		}
	}()
	flat, err := opt.Inline(prog)
	if err != nil {
		return nil, err
	}
	return CompileCtx(ctx, flat, comp, o)
}

// Compile runs the full flow. Internal invariant violations in the
// scheduler (which panic, because they indicate bugs rather than bad input)
// are recovered here so that callers — in particular the online-synthesis
// recovery loop, which compiles onto degraded compositions — always get an
// error, never a crash.
func Compile(k *ir.Kernel, comp *arch.Composition, o Options) (*Compiled, error) {
	return CompileCtx(context.Background(), k, comp, o)
}

// CompileCtx is Compile with deadline and cancellation support: the context
// is checked between phases and cooperatively inside the scheduler's
// candidate loop, so a compile against a generous deadline returns shortly
// after the deadline expires with an error satisfying
// errors.Is(err, ctx.Err()) — never with a partial schedule.
func CompileCtx(ctx context.Context, k *ir.Kernel, comp *arch.Composition, o Options) (c *Compiled, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, err = nil, fmt.Errorf("pipeline: internal error compiling kernel: %v", r)
		}
	}()
	// Inside a traced request the compile hangs under the request's active
	// span, so its phases show up in the end-to-end trace; standalone it
	// stays a root span. Either way Compiled.Trace carries the tree.
	var root *obs.Span
	if parent := obs.ContextSpan(ctx); parent != nil {
		root = parent.StartChild("compile")
	} else {
		root = obs.StartSpan("compile")
	}
	defer func() {
		root.Finish()
		if o.Obs != nil {
			root.Export(o.Obs, "cgra_compile")
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: compile cancelled: %w", err)
	}
	o, err = resolveBackend(o)
	if err != nil {
		return nil, err
	}
	optimized, err := opt.ApplySpan(k, opt.Options{
		UnrollFactor: o.UnrollFactor,
		CSE:          o.CSE,
		ConstFold:    o.ConstFold,
	}, root)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: compile cancelled after opt: %w", err)
	}
	cs := root.StartChild("cdfg")
	g, err := cdfg.Build(optimized, o.Build)
	cs.Finish()
	if err != nil {
		return nil, err
	}
	gst := g.Stats()
	cs.Set("nodes", int64(gst.Nodes))
	cs.Set("blocks", int64(gst.Blocks))
	so := o.Sched
	so.Span = root.StartChild("sched")
	s, err := sched.RunCtx(ctx, g, comp, so)
	so.Span.Finish()
	if err != nil {
		return nil, err
	}
	if o.Obs != nil {
		exportModulo(o.Obs, s)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: compile cancelled after sched: %w", err)
	}
	gs := root.StartChild("ctxgen")
	prog, err := ctxgen.GenerateSpan(s, gs)
	gs.Finish()
	if err != nil {
		return nil, err
	}
	return &Compiled{Kernel: optimized, Graph: g, Schedule: s, Program: prog, Trace: root}, nil
}

// Run executes the compiled kernel on the CGRA simulator.
func (c *Compiled) Run(args map[string]int32, host *ir.Host) (*sim.Result, error) {
	return c.Machine().Run(args, host)
}

// RunCtx executes the compiled kernel on the CGRA simulator with
// cooperative cancellation (see sim.Machine.RunCtx).
func (c *Compiled) RunCtx(ctx context.Context, args map[string]int32, host *ir.Host) (*sim.Result, error) {
	return c.Machine().RunCtx(ctx, args, host)
}

// UsedContexts returns the number of contexts the schedule occupies
// (Table I).
func (c *Compiled) UsedContexts() int { return c.Program.NumCtx }

// MaxRFEntries returns the peak register-file usage over all PEs (Table I).
func (c *Compiled) MaxRFEntries() int { return c.Program.Alloc.MaxRF() }

// CheckResult is the outcome of a differential run.
type CheckResult struct {
	Sim       *sim.Result
	Reference map[string]int32
}

// CheckAgainstInterpreter compiles nothing new: it runs the compiled kernel
// on the simulator and the *original* kernel on the reference interpreter
// with identical inputs, then compares live-out scalars and heap contents.
// This is the reproduction's correctness oracle.
func CheckAgainstInterpreter(original *ir.Kernel, c *Compiled, args map[string]int32, host *ir.Host) (*CheckResult, error) {
	hostSim := host.Clone()
	hostRef := host.Clone()

	simRes, err := c.Run(args, hostSim)
	if err != nil {
		return nil, fmt.Errorf("simulator: %v", err)
	}
	refOut, err := (&ir.Interp{}).Run(original, args, hostRef)
	if err != nil {
		return nil, fmt.Errorf("interpreter: %v", err)
	}
	if err := ir.Compare(refOut, hostRef, simRes.LiveOuts, hostSim); err != nil {
		return nil, fmt.Errorf("CGRA run: %w", err)
	}
	return &CheckResult{Sim: simRes, Reference: refOut}, nil
}
