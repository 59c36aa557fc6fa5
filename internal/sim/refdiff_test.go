package sim_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/arch"
	"cgra/internal/ctxgen"
	"cgra/internal/fault"
	"cgra/internal/ir"
	"cgra/internal/kgen"
	"cgra/internal/pipeline"
	"cgra/internal/sched"
	"cgra/internal/sim"
	"cgra/internal/workload"
)

// refCell is one compiled program with concrete inputs for the reference
// differential.
type refCell struct {
	name string
	prog *ctxgen.Program
	args map[string]int32
	host func() *ir.Host
	// phys maps logical to physical PEs (nil: identity over numPhys PEs).
	phys    []int
	numPhys int
}

func compileCell(t testing.TB, name string, k *ir.Kernel, comp *arch.Composition, o pipeline.Options) *pipeline.Compiled {
	t.Helper()
	c, err := pipeline.Compile(k, comp, o)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	return c
}

// refCorpus builds every workload kernel x {list, modulo} plus adpcm on
// each composition, kgen kernels seeds [0, seeds) on each composition, and
// kgen seeds [0, 16) with their counter increments in the post clause on
// the modulo backend. Pipelined bodies overlap 2-cycle MUL and DMA writes
// across the back edge, where the direct-commit window test decides.
func refCorpus(t testing.TB, comps []string, seeds int64) []refCell {
	t.Helper()
	const n = 24
	samples := adpcm.GenerateSamples(n)
	var encSt adpcm.State
	codes, err := adpcm.Encode(samples, &encSt)
	if err != nil {
		t.Fatal(err)
	}
	modulo := pipeline.Defaults()
	modulo.Backend = sched.BackendModulo
	var cells []refCell
	add := func(name string, c *pipeline.Compiled, args map[string]int32, host func() *ir.Host) {
		cells = append(cells, refCell{name: name, prog: c.Program, args: args, host: host, numPhys: c.Program.Comp.NumPEs()})
	}
	for _, cn := range comps {
		comp, err := arch.ByName(cn)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workload.All() {
			size := w.DefaultSize
			host := func() *ir.Host { return w.Host(size) }
			name := cn + "/" + w.Name
			add(name+"/list", compileCell(t, name, w.Kernel, comp, pipeline.Defaults()), w.Args(size), host)
			add(name+"/modulo", compileCell(t, name, w.Kernel, comp, modulo), w.Args(size), host)
		}
		name := cn + "/adpcm"
		add(name, compileCell(t, name, adpcm.Kernel(), comp, pipeline.Defaults()),
			adpcm.Args(n, adpcm.State{}), func() *ir.Host { return adpcm.NewHost(codes, n) })
		for seed := int64(0); seed < seeds; seed++ {
			gk := kgen.New(seed, kgen.Config{})
			name := fmt.Sprintf("%s/kgen%d", cn, seed)
			add(name, compileCell(t, name, gk.Kernel, comp, pipeline.Defaults()), gk.Args, gk.NewHost)
		}
		for seed := int64(0); seed < 16; seed++ {
			gk := kgen.New(seed, kgen.Config{})
			gk.Kernel.Body = kgen.IncrementInPost(gk.Kernel.Body)
			name := fmt.Sprintf("%s/kgen%d/modulo", cn, seed)
			add(name, compileCell(t, name, gk.Kernel, comp, modulo), gk.Args, gk.NewHost)
		}
	}
	return cells
}

// degradedCell compiles fir onto "9 PEs" with PE 4 masked out, so logical
// and physical PE numbers differ and faults must go through PhysPE.
func degradedCell(t testing.TB) refCell {
	t.Helper()
	full, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	d, err := arch.Degrade(full, map[int]bool{4: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("fir")
	if err != nil {
		t.Fatal(err)
	}
	c := compileCell(t, "degraded fir", w.Kernel, d.Comp, pipeline.Defaults())
	return refCell{
		name: "9 PEs degraded/fir", prog: c.Program, args: w.Args(16),
		host: func() *ir.Host { return w.Host(16) }, phys: d.PhysOf, numPhys: full.NumPEs(),
	}
}

// refPlans returns the four fault plans a cell runs under: none, a
// permanent fault on the busiest PE, a transient bit upset on the PE
// holding the first live-out, and a broken link pair under the first
// routed read.
func refPlans(c refCell, seed int64) []*fault.Plan {
	phys := func(pe int) int {
		if c.phys == nil {
			return pe
		}
		return c.phys[pe]
	}
	busiest, most := 0, -1
	src, dst := -1, -1
	for pe, stream := range c.prog.PE {
		issued := 0
		for _, ctx := range stream {
			if ctx.Op != arch.NOP {
				issued++
			}
			switch {
			case src >= 0 || ctx.Op == arch.NOP:
			case ctx.AMode == ctxgen.SrcRoute:
				src, dst = c.prog.Comp.PEs[pe].Inputs[ctx.AInput], pe
			case ctx.BMode == ctxgen.SrcRoute:
				src, dst = c.prog.Comp.PEs[pe].Inputs[ctx.BInput], pe
			}
		}
		if issued > most {
			busiest, most = pe, issued
		}
	}
	home := busiest
	if outs := c.prog.LiveOuts; len(outs) > 0 {
		home = c.prog.Homes[outs[0]].PE
	}
	plan := func(f ...fault.Fault) *fault.Plan { return &fault.Plan{Seed: seed, Window: 48, Faults: f} }
	plans := []*fault.Plan{
		nil,
		plan(fault.Fault{Kind: fault.PermanentPE, PE: phys(busiest)}),
		plan(fault.Fault{Kind: fault.TransientBit, PE: phys(home)}),
	}
	if src >= 0 {
		plans = append(plans, plan(
			fault.Fault{Kind: fault.BrokenLink, Src: phys(src), Dst: phys(dst)},
			fault.Fault{Kind: fault.BrokenLink, Src: phys(dst), Dst: phys(src)}))
	}
	return plans
}

// observed is everything a run exposes: hook calls, fault bookkeeping,
// result, error and heap.
type observed struct {
	events     []sim.Event
	injections int64
	res        *sim.Result
	err        string
	heap       *ir.Host
}

// observe runs c once, on the reference interpreter or the engine, with a
// fresh injector armed from plan. hooked=false attaches nothing but the
// plan (none for a nil plan), so the production path runs.
func observe(t testing.TB, c refCell, plan *fault.Plan, maxCycles int64, ref, hooked bool) observed {
	t.Helper()
	var o observed
	m := sim.New(c.prog)
	m.MaxCycles = maxCycles
	m.PhysPE = c.phys
	if hooked {
		m.Probe = func(ev sim.Event) { o.events = append(o.events, ev) }
	}
	if plan != nil {
		inj, err := fault.NewInjector(*plan, c.numPhys)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m.Inject = inj
	}
	run := m.Run
	if ref {
		run = m.RefRun
	}
	o.heap = c.host()
	res, err := run(c.args, o.heap)
	o.res = res
	if err != nil {
		o.err = err.Error()
	}
	o.injections = m.Inject.Injections()
	return o
}

// diffObserved describes the first difference between a reference and an
// engine observation, "" when there is none.
func diffObserved(want, got observed) string {
	for i := 0; i < len(want.events) || i < len(got.events); i++ {
		if i >= len(want.events) || i >= len(got.events) || want.events[i] != got.events[i] {
			at := func(evs []sim.Event) string {
				if i < len(evs) {
					return fmt.Sprintf("%+v", evs[i])
				}
				return "end of stream"
			}
			return fmt.Sprintf("event %d: reference %s, engine %s", i, at(want.events), at(got.events))
		}
	}
	switch {
	case want.injections != got.injections:
		return fmt.Sprintf("injections: reference %d, engine %d", want.injections, got.injections)
	case want.err != got.err:
		return fmt.Sprintf("error: reference %q, engine %q", want.err, got.err)
	case !reflect.DeepEqual(want.res, got.res):
		return fmt.Sprintf("result: reference %+v, engine %+v", want.res, got.res)
	case !want.heap.Equal(got.heap):
		return "heap contents diverge"
	}
	return ""
}

// refStats counts what a differential exercised.
type refStats struct{ runs, injected, failed int }

// checkRef runs one cell under each fault plan on the reference
// interpreter and on the engine, hooked, and requires identical
// observations; the fault-free plan also runs the engine plain, to the end
// and cut short by the watchdog.
func checkRef(t *testing.T, c refCell, seed int64, st *refStats) {
	t.Helper()
	clean := observe(t, c, nil, 0, true, false)
	if clean.err != "" {
		t.Fatalf("%s: reference run: %s", c.name, clean.err)
	}
	// A fault may trap a loop; the watchdog ends it early.
	maxCycles := 4*clean.res.RunCycles + 1000
	for _, plan := range refPlans(c, seed) {
		want := observe(t, c, plan, maxCycles, true, true)
		got := observe(t, c, plan, maxCycles, false, true)
		if d := diffObserved(want, got); d != "" {
			t.Errorf("%s, plan %v: %s", c.name, plan, d)
		}
		st.runs++
		if want.injections > 0 {
			st.injected++
		}
		if want.err != "" {
			st.failed++
		}
	}
	plain := observe(t, c, nil, maxCycles, false, false)
	if d := diffObserved(clean, plain); d != "" {
		t.Errorf("%s, unhooked: %s", c.name, d)
	}
	// The watchdog cuts the plain run mid-flight: the CCNT it reports and
	// the heap the run leaves behind must match the reference's.
	if cut := clean.res.RunCycles / 2; cut > 0 {
		want := observe(t, c, nil, cut, true, false)
		got := observe(t, c, nil, cut, false, false)
		if !strings.Contains(want.err, "watchdog") {
			t.Errorf("%s: reference run cut at cycle %d: error %q", c.name, cut, want.err)
		}
		if d := diffObserved(want, got); d != "" {
			t.Errorf("%s, unhooked, cut at cycle %d: %s", c.name, cut, d)
		}
	}
}

// TestEngineMatchesReference is the reference differential: the one
// scalar walk, hooked and plain, reproduces the old instrumented
// interpreter's event stream (each cycle's EvCycle included), injection
// count, result, error text and heap on every workload kernel x {list, modulo}, adpcm, kgen 0-31
// and pipelined kgen 0-15 on a regular and an inhomogeneous composition,
// plus a degraded composition with PhysPE set, each under four fault plans.
func TestEngineMatchesReference(t *testing.T) {
	cells := append(refCorpus(t, []string{"9 PEs", "8 PEs F"}, 32), degradedCell(t))
	var st refStats
	for i, c := range cells {
		checkRef(t, c, int64(i), &st)
	}
	t.Logf("%d cells, %d runs: %d injected a fault, %d ended in an error", len(cells), st.runs, st.injected, st.failed)
	if st.injected == 0 || st.failed == 0 {
		t.Error("the fault plans never injected or never failed a run")
	}
}

// watchdogCells are the cells the watchdog is cut on at every cycle: gcd,
// dot and prefix on a regular and an inhomogeneous composition, plus a
// loop the modulo scheduler pipelined.
func watchdogCells(t *testing.T) []refCell {
	t.Helper()
	var cells []refCell
	add := func(name string, c *pipeline.Compiled, args map[string]int32, host func() *ir.Host) {
		cells = append(cells, refCell{name: name, prog: c.Program, args: args, host: host, numPhys: c.Program.Comp.NumPEs()})
	}
	for _, cn := range []string{"9 PEs", "8 PEs F"} {
		comp, err := arch.ByName(cn)
		if err != nil {
			t.Fatal(err)
		}
		for _, wn := range []string{"gcd", "dot", "prefix"} {
			w, err := workload.ByName(wn)
			if err != nil {
				t.Fatal(err)
			}
			size, name := w.DefaultSize, cn+"/"+wn
			add(name, compileCell(t, name, w.Kernel, comp, pipeline.Defaults()), w.Args(size), func() *ir.Host { return w.Host(size) })
		}
	}
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	modulo := pipeline.Defaults()
	modulo.Backend = sched.BackendModulo
	library := len(cells)
	for seed := int64(0); seed < 16 && len(cells) == library; seed++ {
		gk := kgen.New(seed, kgen.Config{})
		gk.Kernel.Body = kgen.IncrementInPost(gk.Kernel.Body)
		name := fmt.Sprintf("9 PEs/kgen%d/modulo", seed)
		if c := compileCell(t, name, gk.Kernel, comp, modulo); len(c.Schedule.Pipelined) > 0 {
			add(name, c, gk.Args, gk.NewHost)
		}
	}
	if len(cells) == library {
		t.Fatal("no kgen seed below 16 compiles to a pipelined loop")
	}
	return cells
}

// TestPlainWatchdogEveryCut cuts the plain run at every cycle from 1 to
// its full length. The block-stepped walk checks the watchdog once per
// straight-line block and cuts blocks at the budget, so a budget may end
// inside a block, at its last context or on a jump; wherever it ends, the
// CCNT the WatchdogError reports and the partial heap must match the
// reference interpreter's (the full-length budget completes on both).
func TestPlainWatchdogEveryCut(t *testing.T) {
	cells := watchdogCells(t)
	cuts := int64(0)
	for _, c := range cells {
		full := observe(t, c, nil, 0, true, false)
		if full.err != "" {
			t.Fatalf("%s: reference run: %s", c.name, full.err)
		}
		cuts += full.res.RunCycles
		for cut := int64(1); cut <= full.res.RunCycles; cut++ {
			want := observe(t, c, nil, cut, true, false)
			got := observe(t, c, nil, cut, false, false)
			if cut < full.res.RunCycles && !strings.Contains(want.err, "watchdog") {
				t.Fatalf("%s: reference run cut at cycle %d: error %q", c.name, cut, want.err)
			}
			if d := diffObserved(want, got); d != "" {
				t.Errorf("%s, cut at cycle %d: %s", c.name, cut, d)
				break
			}
		}
	}
	t.Logf("%d cells, %d cuts", len(cells), cuts)
}

// TestHookedRunsConcurrent is the system's fault-injection pattern: 16
// goroutines share one Decoded and one armed Injector, half of them hooked
// (Probe plus the fault plan), half plain. Every run draws pooled run
// state; the plain results must equal a sequential run (run under -race).
func TestHookedRunsConcurrent(t *testing.T) {
	w, err := workload.ByName("fir")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	c := compileCell(t, "fir", w.Kernel, comp, pipeline.Defaults())
	eng, err := c.Engine()
	if err != nil {
		t.Fatal(err)
	}
	args, size := w.Args(w.DefaultSize), w.DefaultSize
	cell := refCell{prog: c.Program, numPhys: comp.NumPEs()}
	plan := refPlans(cell, 1)[1] // permanent fault on the busiest PE
	inj, err := fault.NewInjector(*plan, comp.NumPEs())
	if err != nil {
		t.Fatal(err)
	}
	wantHost := w.Host(size)
	want, err := c.Run(args, wantHost)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16*8)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(hooked bool) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				m := sim.New(c.Program)
				m.Engine = eng
				m.MaxCycles = 4*want.RunCycles + 1000
				issued := 0
				if hooked {
					m.Probe = func(ev sim.Event) {
						if ev.Kind == sim.EvIssue {
							issued++
						}
					}
					m.Inject = inj
				}
				host := w.Host(size)
				res, err := m.Run(args, host)
				switch {
				case hooked && issued == 0:
					errs <- "hooked run observed no issue"
				case hooked:
				case err != nil:
					errs <- err.Error()
				case !reflect.DeepEqual(res, want) || !host.Equal(wantHost):
					errs <- fmt.Sprintf("plain run diverged: %+v, want %+v", res, want)
				}
			}
		}(g%2 == 0)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if inj.Injections() == 0 {
		t.Error("the shared fault plan never injected")
	}
}
