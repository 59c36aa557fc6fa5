package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cgra/internal/arch"
	"cgra/internal/ir"
	"cgra/internal/pipeline"
	"cgra/internal/sim"
)

// engineWL is the sim_engine workload: six pre-compiled kernels, the
// compiler idle, the simulator doing all the work. The same contexts are
// run three ways — one invocation at a time on the production path, as
// 16-lane batches, and one at a time with hardware counters attached —
// and the three are separate numbers, so that none can pay for another.
type engineWL struct {
	ks []*engKernel
	// untraced is the typical single-run latency of the untraced rounds
	// (median round, not the quietest): what the traced pass's is compared with.
	untraced float64
}

type engKernel struct {
	k      *kernelCase
	c      *pipeline.Compiled
	eng    *sim.Decoded
	cycles int64
}

var engineArms = []string{"run1", "run16", "probed"}

// lanesOf is how many invocations one operation of the arm carries.
func lanesOf(arm string) int {
	if arm == "run16" {
		return 16
	}
	return 1
}

func (w *engineWL) setup(e *env) error {
	lib, err := libraryCases()
	if err != nil {
		return err
	}
	cases, err := pick(lib, engineKernel...)
	if err != nil {
		return err
	}
	mesh9, err := arch.ByName("9 PEs")
	if err != nil {
		return err
	}
	w.ks = nil
	for _, k := range cases {
		c, err := pipeline.Compile(k.orig, mesh9, pipeline.Defaults())
		if err != nil {
			return fmt.Errorf("%s: %v", k.name, err)
		}
		eng, err := c.Engine()
		if err != nil {
			return fmt.Errorf("%s: %v", k.name, err)
		}
		ek := &engKernel{k: k, c: c, eng: eng}
		// The first single run fixes the cycle count every arm must report.
		heap := k.host.Clone()
		res, err := c.Machine().Run(k.args, heap)
		if err != nil {
			return fmt.Errorf("%s: %v", k.name, err)
		}
		ek.cycles = res.TotalCycles()
		for _, arm := range engineArms {
			if _, err := ek.invoke(nil, arm, lanesOf(arm), -1, 0); err != nil {
				return fmt.Errorf("%s %s: %v", k.name, arm, err)
			}
		}
		w.ks = append(w.ks, ek)
	}
	return nil
}

func (w *engineWL) teardown() {}

// invoke performs one operation of an arm on fresh heaps, times only the
// engine call, and checks cycles, live-outs and heap of every lane.
func (k *engKernel) invoke(tr *tracer, arm string, lanes, parent, op int) (time.Duration, error) {
	heaps := make([]*ir.Host, lanes)
	for i := range heaps {
		heaps[i] = k.k.host.Clone()
	}
	results := make([]*sim.Result, lanes)
	var err error
	var d time.Duration
	switch arm {
	case "run1", "probed", "interp":
		m := k.c.Machine()
		if arm == "interp" {
			m = sim.New(k.c.Program)
		}
		d = tr.timed("sim."+arm, parent, op, func() {
			if arm == "probed" {
				sim.AttachCounters(m)
			}
			results[0], err = m.Run(k.k.args, heaps[0])
		})
	default: // batched lanes
		reqs := make([]sim.BatchRequest, lanes)
		for i := range reqs {
			reqs[i] = sim.BatchRequest{Args: k.k.args, Host: heaps[i]}
		}
		var outs []sim.BatchResult
		d = tr.timed("sim."+arm, parent, op, func() { outs = k.eng.RunBatch(context.Background(), 0, reqs) })
		for i, o := range outs {
			if o.Err != nil {
				err = o.Err
			}
			results[i] = o.Res
		}
	}
	if err != nil {
		return d, err
	}
	for i, res := range results {
		if res.TotalCycles() != k.cycles {
			return d, fmt.Errorf("%d cycles, single run took %d", res.TotalCycles(), k.cycles)
		}
		if err := k.k.check(res.LiveOuts, heaps[i].Arrays); err != nil {
			return d, err
		}
	}
	return d, nil
}

// window repeats one arm for the given wall time and returns the engine
// time of each operation.
func (k *engKernel) window(ops *tally, arm string, lanes int, length time.Duration) []float64 {
	var times []float64
	for start, n := time.Now(), 0; n == 0 || time.Since(start) < length; n++ {
		d, err := k.invoke(nil, arm, lanes, -1, 0)
		ops.add(lanes)
		if err != nil {
			ops.fail(k.k.name+"/"+arm, err)
			continue
		}
		times = append(times, ms(d))
	}
	return times
}

// mcps is simulated megacycles per host second over a window's operations.
func (k *engKernel) mcps(times []float64, lanes int) float64 {
	total := 0.0
	for _, t := range times {
		total += t
	}
	if total == 0 {
		return 0
	}
	return float64(k.cycles) * float64(lanes*len(times)) / (total / 1000) / 1e6
}

func (w *engineWL) measure(e *env, budget time.Duration) error {
	rounds := 7
	if e.tiny {
		rounds = 1
	}
	length := budget / time.Duration(rounds*len(w.ks)*len(engineArms))
	rates := map[string][]float64{} // arm.kernel → Mcyc/s per round
	// kernel → per round: median and p90 single-run latency, batched ops/s
	p50s, p90s, batchOps := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	// The arms of one kernel run back to back inside each round, so a slow
	// stretch of the machine hits all three alike.
	for r := 0; r < rounds; r++ {
		for _, k := range w.ks {
			for _, arm := range engineArms {
				lanes := lanesOf(arm)
				times := k.window(&e.ops, arm, lanes, length)
				if len(times) == 0 {
					continue
				}
				rate := k.mcps(times, lanes)
				rates[arm+"."+k.k.name] = append(rates[arm+"."+k.k.name], rate)
				switch arm {
				case "run1":
					p50s[k.k.name] = append(p50s[k.k.name], median(times))
					p90s[k.k.name] = append(p90s[k.k.name], percentile(times, 0.90))
				case "run16":
					batchOps[k.k.name] = append(batchOps[k.k.name], rate*1e6/float64(k.cycles))
				}
			}
		}
	}
	var p50, p90, perSec, speedup, typical []float64
	for _, k := range w.ks {
		typical = append(typical, median(p50s[k.k.name]))
		p50 = append(p50, quietLow(p50s[k.k.name]))
		p90 = append(p90, quietLow(p90s[k.k.name]))
		perSec = append(perSec, quietHigh(batchOps[k.k.name]))
		speedup = append(speedup, float64(k.k.amidar)/float64(k.cycles))
	}
	e.set("op_p50_ms", geomean(p50))
	e.set("op_p90_ms", geomean(p90))
	e.set("ops_per_s", geomean(perSec))
	e.set("cgra_speedup", geomean(speedup))
	w.untraced = geomean(typical)
	for _, arm := range engineArms {
		var medians []float64
		for _, k := range w.ks {
			s := summarize(rates[arm+"."+k.k.name])
			e.setDetail("sim."+arm+"_mcps."+k.k.name, s)
			medians = append(medians, s.Median)
		}
		e.set(arm+"_mcps", geomean(medians))
	}
	return nil
}

func (w *engineWL) traced(e *env) error {
	n, length := 40, 60*time.Millisecond
	if e.tiny {
		n, length = 2, time.Millisecond
	}
	// Spans: a fixed number of operations per kernel and arm.
	var tracedP50 []float64
	op := 0
	for _, k := range w.ks {
		root := e.tr.start("kernel."+k.k.name, -1, op)
		for _, arm := range engineArms {
			var times []float64
			for i := 0; i < n; i++ {
				op++
				d, err := k.invoke(e.tr, arm, lanesOf(arm), root, op)
				if err != nil {
					return fmt.Errorf("%s %s: %v", k.k.name, arm, err)
				}
				times = append(times, ms(d))
			}
			if arm == "run1" {
				tracedP50 = append(tracedP50, median(times))
			}
		}
		e.tr.end(root)
	}
	e.set("trace.overhead", geomean(tracedP50)/w.untraced)

	// Lane scaling and the un-predecoded interpreter, outside the spans.
	for _, probe := range []struct {
		metric, arm string
		lanes       int
	}{{"sim.lanes1_mcps", "lanes", 1}, {"sim.lanes4_mcps", "lanes", 4}, {"sim.lanes64_mcps", "lanes", 64}, {"sim.interp_mcps", "interp", 1}} {
		var rates []float64
		for _, k := range w.ks {
			var ops tally
			times := k.window(&ops, probe.arm, probe.lanes, length)
			if ops.failed > 0 {
				return fmt.Errorf("%s: %s: %v", k.k.name, probe.metric, ops.causeLines())
			}
			rates = append(rates, k.mcps(times, probe.lanes))
		}
		e.set(probe.metric, geomean(rates))
	}

	// Heap allocations of one production run, heaps cloned beforehand.
	const runs = 50
	var mallocs uint64
	for _, k := range w.ks {
		heaps := make([]*ir.Host, runs)
		for i := range heaps {
			heaps[i] = k.k.host.Clone()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, h := range heaps {
			if _, err := k.c.Machine().Run(k.k.args, h); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	e.set("sim.run1_allocs", float64(mallocs)/float64(runs*len(w.ks)))

	// The oracle's cost and the one-time decode, summed over the kernels.
	var interp, decode []float64
	for r := 0; r < 5; r++ {
		var ti, td time.Duration
		for _, k := range w.ks {
			heap := k.k.host.Clone()
			ti += e.tr.timed("ir.interp", -1, op, func() { _, _ = (&ir.Interp{}).Run(k.k.orig, k.k.args, heap) })
			td += e.tr.timed("sim.predecode", -1, op, func() { _, _ = sim.Predecode(k.c.Program) })
		}
		interp, decode = append(interp, ms(ti)), append(decode, ms(td))
	}
	e.setDetail("ir.interp_ms", summarize(interp))
	e.setDetail("sim.predecode_ms", summarize(decode))
	return nil
}
