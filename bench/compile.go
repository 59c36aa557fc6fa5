package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"cgra/internal/cdfg"
	"cgra/internal/ctxgen"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/opt"
	"cgra/internal/pipeline"
	"cgra/internal/sched"
	"cgra/internal/sim"
)

// compileWL is the compile_list / compile_modulo workload: a sweep of cold
// compiles over kernels × compositions. The compiler does all the work;
// the simulator only verifies each result.
type compileWL struct {
	backend string
	opts    pipeline.Options
	cells   []*cell
	// untraced is the sum, over the cells that compile, of each cell's
	// median compile time in the untraced sweeps: what the traced chain's
	// total is compared with.
	untraced float64
}

// cell is one kernel on one composition. Set-up compiles it twice and
// records what every later compile must reproduce.
type cell struct {
	k    *kernelCase
	t    target
	name string

	refused error    // the backend declines this cell: it runs on the host
	broken  error    // set-up got a wrong answer, or two different compiles
	print   [32]byte // fingerprint of the generated contexts
	cycles  int64    // simulated invocation cycles, run + transfers
}

// onArray says the cell compiled in set-up, twice the same, and answered
// like the reference: only then is its cycle count a number to report.
func (c *cell) onArray() bool { return c.refused == nil && c.broken == nil }

func newCompileWL(backend string) *compileWL {
	o := pipeline.Defaults()
	if backend != sched.BackendList {
		o.Backend = backend
	}
	return &compileWL{backend: backend, opts: o}
}

func fingerprint(p *ctxgen.Program) [32]byte {
	h := sha256.New()
	fmt.Fprint(h, p.NumCtx, p.PE, p.CBox, p.CCU)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// compile is the timed operation: source text in, runnable engine out.
func (w *compileWL) compile(c *cell) (*pipeline.Compiled, time.Duration, error) {
	t0 := time.Now()
	k, err := irtext.Parse(c.k.source)
	var out *pipeline.Compiled
	if err == nil {
		out, err = pipeline.Compile(k, c.t.comp, w.opts)
	}
	if err == nil {
		_, err = out.Engine()
	}
	return out, time.Since(t0), err
}

// execute runs a generated program on a fresh heap and checks the answer.
func (c *cell) execute(m *sim.Machine) (int64, error) {
	heap := c.k.host.Clone()
	res, err := m.Run(c.k.args, heap)
	if err != nil {
		return 0, err
	}
	return res.TotalCycles(), c.k.check(res.LiveOuts, heap.Arrays)
}

func (w *compileWL) setup(e *env) error {
	lib, err := libraryCases()
	if err != nil {
		return err
	}
	nGen, libComps, genComps := 40, []string{"4 PEs", "9 PEs", "16 PEs", "8 PEs B", "8 PEs F"}, []string{"9 PEs", "8 PEs F"}
	if e.tiny {
		nGen, libComps = 3, genComps
	}
	gen, err := generatedCases(e.seed, nGen)
	if err != nil {
		return err
	}
	w.cells = nil
	for _, set := range []struct {
		cases []*kernelCase
		comps []string
	}{{lib, libComps}, {gen, genComps}} {
		ts, err := targets(set.comps...)
		if err != nil {
			return err
		}
		for _, k := range set.cases {
			for _, t := range ts {
				w.cells = append(w.cells, &cell{k: k, t: t, name: k.name + "@" + t.tag})
			}
		}
	}
	for _, c := range w.cells {
		w.fix(c)
	}
	return nil
}

// fix compiles a cell twice: the first compile fixes its contexts and
// cycles, the second must reproduce them, or the compiler is not
// deterministic and no count from it can be compared across commits. A
// cell that goes wrong here fails in every sweep; it does not end the run.
func (w *compileWL) fix(c *cell) {
	for pass := 0; pass < 2 && c.onArray(); pass++ {
		out, _, err := w.compile(c)
		if err != nil {
			c.refused = err
			return
		}
		cycles, err := c.execute(out.Machine())
		switch fp := fingerprint(out.Program); {
		case err != nil:
			c.broken = fmt.Errorf("set-up run: %v", err)
		case pass == 0:
			c.print, c.cycles = fp, cycles
		case fp != c.print || cycles != c.cycles:
			c.broken = fmt.Errorf("two compiles of one cell differ (cycles %d and %d)", c.cycles, cycles)
		}
	}
}

func (w *compileWL) teardown() {}

// sweep compiles and verifies every cell once and returns the compile time
// of each cell (verification is outside the timer).
func (w *compileWL) sweep(e *env) []float64 {
	times := make([]float64, len(w.cells))
	e.ops.add(len(w.cells))
	for i, c := range w.cells {
		out, d, err := w.compile(c)
		times[i] = ms(d)
		switch {
		case c.broken != nil:
			e.ops.fail(c.name, c.broken)
		case err != nil && c.refused != nil:
			e.ops.decline(c.name, err)
		case err != nil:
			e.ops.fail(c.name, err)
		case c.refused != nil:
			e.ops.fail(c.name, fmt.Errorf("compiled now, refused in set-up: %v", c.refused))
		default:
			cycles, err := c.execute(out.Machine())
			if err == nil && (cycles != c.cycles || fingerprint(out.Program) != c.print) {
				err = fmt.Errorf("contexts or cycles differ from set-up (cycles %d, were %d)", cycles, c.cycles)
			}
			if err != nil {
				e.ops.fail(c.name, err)
			}
		}
	}
	return times
}

func (w *compileWL) measure(e *env, budget time.Duration) error {
	// A sweep is a round: the same cells every time, so its median and p90
	// over the cells compare from sweep to sweep.
	var sweeps, p50s, p90s, samples []float64
	for start := time.Now(); len(sweeps) == 0 || time.Since(start) < budget; {
		times := w.sweep(e)
		total := 0.0
		for _, t := range times {
			total += t
		}
		sweeps = append(sweeps, total)
		p50s = append(p50s, median(times))
		p90s = append(p90s, percentile(times, 0.90))
		samples = append(samples, times...)
	}
	e.setDetail("compile_ms", summarize(sweeps))
	e.set("op_p50_ms", quietLow(p50s))
	e.set("op_p90_ms", quietLow(p90s))
	e.set("ops_per_s", float64(len(w.cells))/(quietLow(sweeps)/1000))

	var ratios []float64
	w.untraced = 0
	for i, c := range w.cells {
		r := 1.0 // a cell the array cannot take runs on the host
		if c.onArray() {
			r = float64(c.k.amidar) / float64(c.cycles)
			var mine []float64
			for j := i; j < len(samples); j += len(w.cells) {
				mine = append(mine, samples[j])
			}
			w.untraced += median(mine)
		}
		ratios = append(ratios, r)
		if c.k.name == "adpcm" && c.onArray() {
			e.set("sched.adpcm_cycles."+c.t.tag, float64(c.cycles))
		}
	}
	e.set("cgra_speedup", geomean(ratios))
	return nil
}

// traced runs the compile chain by hand, one span per layer, and checks
// that it builds what pipeline.Compile builds.
func (w *compileWL) traced(e *env) error {
	rounds := 3
	if e.tiny {
		rounds = 1
	}
	o := w.opts
	o.Sched.Backend = w.backend
	if w.backend == sched.BackendModulo {
		o.UnrollFactor = 1 // as pipeline does: pipelining needs the +1 counter step
	}
	layers := []string{"irtext.parse", "opt.apply", "cdfg.build", "sched.run", "ctxgen.generate", "sim.predecode", "pipeline.compile"}
	perRound := map[string][]float64{}
	counts := map[string]float64{}
	var iiOverMII, chain []float64
	compiled := 0

	for r := 0; r < rounds; r++ {
		sum := map[string]time.Duration{}
		for i, c := range w.cells {
			if !c.onArray() {
				continue
			}
			op := r*len(w.cells) + i
			root := e.tr.start("cell", -1, op)
			step := func(name string, f func()) { sum[name] += e.tr.timed(name, root, op, f) }
			var (
				k, ko *ir.Kernel
				g     *cdfg.Graph
				s     *sched.Schedule
				p     *ctxgen.Program
				d     *sim.Decoded
				err   error
			)
			step("irtext.parse", func() { k, err = irtext.Parse(c.k.source) })
			if err == nil {
				step("opt.apply", func() {
					ko, err = opt.Apply(k, opt.Options{UnrollFactor: o.UnrollFactor, CSE: o.CSE, ConstFold: o.ConstFold})
				})
			}
			if err == nil {
				step("cdfg.build", func() { g, err = cdfg.Build(ko, o.Build) })
			}
			if err == nil {
				step("sched.run", func() { s, err = sched.Run(g, c.t.comp, o.Sched) })
			}
			if err == nil {
				step("ctxgen.generate", func() { p, err = ctxgen.Generate(s) })
			}
			if err == nil {
				step("sim.predecode", func() { d, err = sim.Predecode(p) })
			}
			e.tr.end(root)
			if err != nil {
				return fmt.Errorf("%s: hand-run chain: %v", c.name, err)
			}
			var ref *pipeline.Compiled
			sum["pipeline.compile"] += e.tr.timed("pipeline.compile", -1, op, func() {
				ref, err = pipeline.Compile(k, c.t.comp, w.opts)
			})
			if err != nil {
				return fmt.Errorf("%s: pipeline.Compile: %v", c.name, err)
			}
			m := sim.New(p)
			m.Engine = d
			cycles, err := c.execute(m)
			if err != nil {
				return fmt.Errorf("%s: hand-run chain: %v", c.name, err)
			}
			if fingerprint(p) != fingerprint(ref.Program) || cycles != c.cycles {
				return fmt.Errorf("%s: hand-run chain and pipeline.Compile differ", c.name)
			}
			if r > 0 {
				continue // counts are the same every round
			}
			compiled++
			gs := g.Stats()
			counts["opt.stmts_out"] += float64(countStmts(ko.Body))
			counts["cdfg.nodes"] += float64(gs.Nodes)
			counts["cdfg.blocks"] += float64(gs.Blocks)
			counts["sched.copies"] += float64(s.Stats.CopiesInserted)
			counts["sched.fused_pwrites"] += float64(s.Stats.FusedPWrites)
			counts["sched.cbox_ops"] += float64(s.Stats.CBoxOps)
			counts["ctxgen.contexts"] += float64(p.NumCtx)
			counts["ctxgen.max_rf"] += float64(p.Alloc.MaxRF())
			counts["modsched.pipelined_loops"] += float64(len(s.Pipelined))
			for _, l := range s.Pipelined {
				counts["modsched.backtracks"] += float64(l.Backtracks)
				iiOverMII = append(iiOverMII, float64(l.II)/float64(l.MII))
			}
		}
		total := time.Duration(0)
		for _, l := range layers {
			perRound[l] = append(perRound[l], ms(sum[l]))
			if l != "pipeline.compile" {
				total += sum[l]
			}
		}
		chain = append(chain, ms(total))
	}

	schedMS := "sched.list_ms"
	if w.backend == sched.BackendModulo {
		schedMS = "sched.modulo_ms"
	}
	names := map[string]string{"irtext.parse": "irtext.parse_ms", "opt.apply": "opt.apply_ms", "cdfg.build": "cdfg.build_ms",
		"sched.run": schedMS, "ctxgen.generate": "ctxgen.generate_ms", "sim.predecode": "sim.predecode_ms", "pipeline.compile": "pipeline.compile_ms"}
	inside := 0.0
	for _, l := range layers {
		s := summarize(perRound[l])
		e.setDetail(names[l], s)
		if l != "irtext.parse" && l != "sim.predecode" && l != "pipeline.compile" {
			inside += s.Median
		}
	}
	for name, v := range counts {
		e.set(name, v)
	}
	if compiled > 0 {
		e.set("ctxgen.contexts", counts["ctxgen.contexts"]/float64(compiled))
		e.set("ctxgen.max_rf", counts["ctxgen.max_rf"]/float64(compiled))
	}
	e.set("modsched.ii_over_mii", geomean(iiOverMII))
	e.set("modsched.failed_cells", float64(len(w.cells)-compiled))
	// The four layers pipeline.Compile calls must account for its time;
	// parsing and predecoding happen outside it.
	e.set("trace.layer_coverage", inside/e.m["pipeline.compile_ms"])
	e.set("trace.overhead", median(chain)/w.untraced)
	return nil
}

// countStmts is the size of the optimised IR, counted the way opt counts
// it for its own phase metrics.
func countStmts(stmts []ir.Stmt) int {
	n := 0
	for _, s := range stmts {
		n++
		switch s := s.(type) {
		case *ir.If:
			n += countStmts(s.Then) + countStmts(s.Else)
		case *ir.While:
			n += countStmts(s.Body)
		case *ir.For:
			n += countStmts(s.Body)
		}
	}
	return n
}
