package pipeline

import (
	"context"
	"fmt"
	"strconv"

	"cgra/internal/arch"
	"cgra/internal/ir"
	"cgra/internal/obs"
	"cgra/internal/sched"
)

// exportModulo publishes the modulo backend's per-loop pipelining report:
// the achieved initiation interval, its lower bound, and the backtracking
// spent getting there. One labeled series per pipelined loop.
func exportModulo(reg *obs.Registry, s *sched.Schedule) {
	if len(s.Pipelined) == 0 {
		return
	}
	reg.Help("cgra_modulo_ii", "achieved initiation interval per pipelined loop")
	reg.Help("cgra_modulo_mii", "minimum initiation interval bound (max of ResMII, RecMII)")
	reg.Help("cgra_modulo_ii_gap", "achieved II minus the MII lower bound")
	reg.Help("cgra_modulo_backtracks", "ejections spent by the modulo scheduler per pipelined loop")
	reg.Help("cgra_modulo_stages", "pipeline depth (stage count) per pipelined loop")
	for i, pl := range s.Pipelined {
		l := obs.L("loop", strconv.Itoa(i))
		reg.Gauge("cgra_modulo_ii", l).SetInt(int64(pl.II))
		reg.Gauge("cgra_modulo_mii", l).SetInt(int64(pl.MII))
		reg.Gauge("cgra_modulo_ii_gap", l).SetInt(int64(pl.II - pl.MII))
		reg.Gauge("cgra_modulo_backtracks", l).SetInt(int64(pl.Backtracks))
		reg.Gauge("cgra_modulo_stages", l).SetInt(int64(pl.Stages))
	}
}

// AutoReport documents one auto-backend selection.
type AutoReport struct {
	// Selected is the backend whose result CompileAutoCtx returned.
	Selected string
	// ListCycles and ModuloCycles are the verified end-to-end run cycles of
	// each arm on the representative inputs (-1 when that arm failed).
	ListCycles   int64
	ModuloCycles int64
	// ListErr and ModuloErr carry an arm's compile or verification failure.
	ListErr   string
	ModuloErr string
	// Pipelined is the modulo arm's per-loop report (empty when no loop
	// pipelined — in that case the arms tie and list wins).
	Pipelined []sched.PipelinedLoop
}

type autoArm struct {
	c      *Compiled
	cycles int64
	err    error
}

// compileAndVerify compiles one arm and proves it on the inputs against the
// reference interpreter. Cycles come from the verified run, so selection
// can never prefer a faster-but-wrong result.
func compileAndVerify(ctx context.Context, k *ir.Kernel, comp *arch.Composition, o Options,
	args map[string]int32, host *ir.Host) autoArm {
	c, err := CompileCtx(ctx, k, comp, o)
	if err != nil {
		return autoArm{cycles: -1, err: err}
	}
	res, err := CheckAgainstInterpreter(k, c, args, host)
	if err != nil {
		return autoArm{cycles: -1, err: fmt.Errorf("verification: %w", err)}
	}
	return autoArm{c: c, cycles: res.Sim.RunCycles}
}

// CompileAutoCtx implements the "auto" backend: both backends compile in
// parallel, each result runs on the representative inputs and is checked
// against the reference interpreter, and the fewer verified cycles win.
// List wins ties and is the fallback for any modulo failure; if the list
// arm itself fails, a verified modulo result still serves. The host is
// cloned per run, so the caller's heap stays untouched. The context
// bounds both compiles.
func CompileAutoCtx(ctx context.Context, k *ir.Kernel, comp *arch.Composition, o Options,
	args map[string]int32, host *ir.Host) (*Compiled, *AutoReport, error) {
	lo, mo := o, o
	lo.Backend, lo.Sched.Backend = sched.BackendList, ""
	mo.Backend, mo.Sched.Backend = sched.BackendModulo, ""
	// The arms race on one shared registry; each gets its own and the
	// winner's metrics are re-exported below.
	lo.Obs, mo.Obs = nil, nil

	var list, modulo autoArm
	done := make(chan struct{})
	go func() {
		defer close(done)
		modulo = compileAndVerify(ctx, k, comp, mo, args, host)
	}()
	list = compileAndVerify(ctx, k, comp, lo, args, host)
	<-done

	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("pipeline: auto compile cancelled: %w", err)
	}

	rep := &AutoReport{Selected: sched.BackendList, ListCycles: list.cycles, ModuloCycles: modulo.cycles}
	if list.err != nil {
		rep.ListErr = list.err.Error()
	}
	if modulo.err != nil {
		rep.ModuloErr = modulo.err.Error()
	}
	if modulo.c != nil {
		rep.Pipelined = modulo.c.Schedule.Pipelined
	}

	win := list
	if modulo.err == nil && (list.err != nil || modulo.cycles < list.cycles) {
		win, rep.Selected = modulo, sched.BackendModulo
	}
	if win.err != nil {
		return nil, rep, fmt.Errorf("pipeline: auto compile failed (list: %v; modulo: %v)", list.err, modulo.err)
	}
	if o.Obs != nil {
		o.Obs.Help("cgra_auto_selected_total", "auto-backend selections by winning backend")
		o.Obs.Counter("cgra_auto_selected_total", obs.L("backend", rep.Selected)).Inc()
		if win.c.Schedule != nil {
			exportModulo(o.Obs, win.c.Schedule)
		}
	}
	return win.c, rep, nil
}
