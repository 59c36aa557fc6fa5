// Package sim is a cycle-accurate behavioural simulator for generated CGRA
// context streams. It mirrors the execution semantics fixed in DESIGN.md §5:
// one global CCNT addressing every context memory, per-PE ALUs with
// register files, neighbour routing through outl, a C-Box consuming one
// status per cycle and driving predication (outPE) and branch selection
// (outctrl), DMA to the host heap, and predicated squashing of commits.
//
// Predecode compiles a program once into a Decoded engine, which runs it
// three ways. A plain run takes Decoded.runPlain, stepping a straight-line
// block of contexts (ctxMeta.end) per dispatch; a run with Probe, Trace or
// a fault plan takes Decoded.run, stepping one context per cycle and
// calling its hooks (hooks.go) where a value is observed or corrupted;
// RunBatch (runlanes.go) steps N hook-free invocations as lanes, a block
// per dispatch and each slot as one loop over its lanes, while they agree,
// and hands each lane to runPlain's loop (Decoded.walk) at the first fault
// or disagreeing branch, so a divergent lane finishes on the production
// walk. The two scalar walks are separate copies on purpose:
// nil-tested hook sites cost the plain walk about half its block-stepping
// gain, and a generic walk calls no-op hooks through a dictionary
// (EXPERIMENTS.md, "Block-stepped walk").
//
// All walks run on one state type (runState, of which a scalar run is the
// one-lane form) and share one commit model, fixed at predecode. A routed
// operand is an RF read at the offset its source presents, with no routing
// latch; each context's header (ctxMeta) says which phases run and where
// the CCU goes; a write whose early commit is provably unobservable
// (dslot.direct) lands at issue on a hook-free walk; every other commit
// waits as the same 16-byte record (pend) in a due-cycle ring and lands at
// the end of its cycle, in issue order. The hooked walk sends every commit
// through the ring, so events and injected write faults keep their commit
// cycle and order.
//
// Every walk reads both operands of a slot without testing their modes:
// Predecode points an absent operand at a zero word and a CONST's
// immediate at a constant word, both kept in the register slab above the
// registers, where no write lands. The hook-free walks also dispatch on a
// shape fixed at predecode (dslot.shape): unpredicated and predicated
// direct ALU writes, compares and unpredicated direct loads run with no
// further test, and only the rest take the general path.
//
// No walk defines what an opcode computes: each inlines arch.Eval and
// arch.Holds, the op table's definitions. Predecode refuses a program that
// issues an op its PE does not implement, so no walk has an unknown-op path.
// Nor does a walk define the C-Box: Predecode decodes each context's word
// once into a cboxWord (first operand, an optional second joined by AND or
// OR, the slot written), settling there that a consume takes precedence
// over a recombine and that a pass has no second operand; the scalar walks
// evaluate it through the one inlined cboxWord.eval, the lane walk over
// rows through cboxWord.rows beside it, and every walk reads its phase-2
// latches from ctxMeta.
//
// The simulator is the ground truth for the reproduction: every kernel's
// CGRA run is checked against the IR interpreter's results.
package sim

import (
	"context"
	"fmt"

	"cgra/internal/ctxgen"
	"cgra/internal/fault"
	"cgra/internal/ir"
	"cgra/internal/obs"
)

// WatchdogError reports that a run exceeded its cycle budget. The recovery
// layer treats it as a detected fault (a corrupted condition can trap a
// schedule in an infinite loop), distinct from structural simulator errors.
type WatchdogError struct {
	// Limit is the exhausted cycle budget.
	Limit int64
	// CCNT is the context counter at expiry.
	CCNT int
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("sim: watchdog: cycle budget %d exhausted (ccnt=%d)", e.Limit, e.CCNT)
}

// Result reports one CGRA run (the paper's "invocation": receive live-ins,
// run, send live-outs, §IV-A3).
type Result struct {
	// RunCycles is the number of context cycles executed.
	RunCycles int64
	// TransferCycles is the invocation overhead: 2 cycles per live-in and
	// per live-out local variable.
	TransferCycles int64
	// LiveOuts holds the final values of live-out locals.
	LiveOuts map[string]int32
	// Energy accumulates the per-op energy of executed operations
	// (arbitrary units from the composition description).
	Energy float64
}

// TotalCycles is the full invocation cost.
func (r *Result) TotalCycles() int64 { return r.RunCycles + r.TransferCycles }

// Machine executes one program.
type Machine struct {
	prog *ctxgen.Program
	// MaxCycles bounds the run; zero or negative means 500M.
	MaxCycles int64
	// Trace, when non-nil, receives one line per cycle (debugging).
	Trace func(cycle int64, ccnt int)
	// Probe, when non-nil, receives every observable state change (RF
	// writes, squashes, condition writes, jumps, DMA); see Event.
	Probe func(Event)
	// Inject, when non-nil, corrupts machine state per its armed fault
	// plan (see package fault).
	Inject *fault.Injector
	// PhysPE maps this program's logical PE indices to the physical PE
	// identities the injector's faults name. Degraded compositions are
	// renumbered, so the mapping keeps faults pinned to the physical
	// hardware; nil means identity (undegraded composition).
	PhysPE []int
	// Engine is the predecoded engine of prog (see Predecode). A nil
	// Engine is decoded on the machine's first run and kept.
	Engine *Decoded
}

// cycleLimit is the cycle budget a run gets from limit: limit itself, or
// 500M when limit is zero or negative.
func cycleLimit(limit int64) int64 {
	if limit <= 0 {
		return 500_000_000
	}
	return limit
}

// New creates a machine for a program.
func New(prog *ctxgen.Program) *Machine { return &Machine{prog: prog} }

// Run executes the program with the given live-in arguments against host
// memory and returns the live-outs and cycle counts.
func (m *Machine) Run(args map[string]int32, host *ir.Host) (*Result, error) {
	return m.RunCtx(context.Background(), args, host)
}

// ctxCheckInterval is how many simulated cycles pass between cooperative
// cancellation checks in RunCtx. Checking ctx.Err() costs a few ns, so the
// interval keeps the overhead invisible while still bounding the reaction
// time to a cancellation at well under a millisecond of wall time.
const ctxCheckInterval = 8192

// RunCtx is Run with cooperative cancellation: the machine checks the
// context every few thousand simulated cycles and aborts the run with the
// context's error (wrapped, so errors.Is works) when it is cancelled or
// past its deadline. The host heap may hold partial DMA effects after a
// cancelled run; callers that need clean state must run against a clone.
//
// Inside a traced request the execution becomes an "engine" span,
// annotated with the path taken ("fast" without instrumentation, "hooked"
// with Probe, Trace or a fault plan attached) and the simulated cycle
// count. Untraced runs skip the span entirely.
func (m *Machine) RunCtx(ctx context.Context, args map[string]int32, host *ir.Host) (*Result, error) {
	h := m.hooks()
	sp := obs.ContextSpan(ctx).StartChild("engine")
	if sp == nil {
		return m.run(ctx, args, host, h)
	}
	path := "fast"
	if h != nil {
		path = "hooked"
	}
	sp.Annotate("path", path)
	res, err := m.run(ctx, args, host, h)
	if err == nil {
		sp.Set("cycles", res.TotalCycles())
	}
	sp.Finish()
	return res, err
}

// run walks the program's predecoded engine, decoding it on first use; a
// program Predecode rejects fails with the predecode error.
func (m *Machine) run(ctx context.Context, args map[string]int32, host *ir.Host, h *hooks) (*Result, error) {
	if m.Engine == nil {
		d, err := Predecode(m.prog)
		if err != nil {
			return nil, err
		}
		m.Engine = d
	}
	limit := cycleLimit(m.MaxCycles)
	if h == nil {
		return m.Engine.runPlain(ctx, limit, args, host)
	}
	return m.Engine.run(ctx, limit, args, host, h)
}
