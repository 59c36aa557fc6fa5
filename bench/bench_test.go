package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuartilesPercentilesGeomean(t *testing.T) {
	var xs []float64
	for i := 10; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize(xs)
	if !near(s.Q1, 2.75) || !near(s.Median, 5.5) || !near(s.Q3, 8.25) || s.N != 10 {
		t.Errorf("summarize(1..10) = %+v", s)
	}
	if got := spread(xs); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := summarize([]float64{7}); got.Q1 != 7 || got.Median != 7 || got.Q3 != 7 {
		t.Errorf("summarize of one value = %+v", got)
	}
	if got := median([]float64{3, 1, 2, 10}); !near(got, 2.5) {
		t.Errorf("median = %v", got)
	}
	var lat []float64
	for i := 1600; i >= 1; i-- {
		lat = append(lat, float64(i))
	}
	if got := percentile(lat, 0.99); got != 1584 { // 16 samples beyond it
		t.Errorf("p99 of 1..1600 = %v, want 1584", got)
	}
	if got := percentile(lat, 0.5); got != 800 {
		t.Errorf("p50 of 1..1600 = %v, want 800", got)
	}
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v", got)
	}
}

func TestQuietDecileIgnoresSlowedRounds(t *testing.T) {
	var rounds []float64
	for i := 1; i <= 19; i++ {
		rounds = append(rounds, float64(i))
	}
	if lo, hi := quietLow(rounds), quietHigh(rounds); lo != 2 || hi != 18 {
		t.Errorf("quiet decile of 1..19 = %v and %v, want 2 and 18", lo, hi)
	}
	// Fewer than ten rounds: the best one.
	if lo, hi := quietLow(rounds[:7]), quietHigh(rounds[:7]); lo != 1 || hi != 7 {
		t.Errorf("quiet decile of 1..7 = %v and %v, want 1 and 7", lo, hi)
	}
	// 40 rounds of 200 ms, 30 of them slowed by a neighbour: the median
	// moves by half, the quiet decile not at all.
	var sweeps []float64
	for i := 0; i < 40; i++ {
		ms := 200.0
		if i%4 != 0 {
			ms = 260 + float64(i)
		}
		sweeps = append(sweeps, ms)
	}
	if got := quietLow(sweeps); got != 200 {
		t.Errorf("quiet decile of mostly slowed rounds = %v, want 200", got)
	}
	if got := median(sweeps); got < 260 {
		t.Errorf("median of mostly slowed rounds = %v, want one of the slowed", got)
	}
}

func TestSelfTimeIsSpanMinusWhatChildrenCover(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "server", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "server", Start: 30, End: 60}, // overlaps the first child
		{ID: 3, Parent: 1, Name: "system", Start: 15, End: 25},
		{ID: 4, Parent: 0, Name: "late", Start: 90, End: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"request": 40, "server": 50, "system": 10, "late": 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}

	var none *tracer
	if id := none.start("x", -1, 0); id != -1 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	ran := false
	none.timed("x", -1, 0, func() { ran = true })
	if !ran {
		t.Error("nil tracer did not run the timed function")
	}
	tr := newTracer()
	root := tr.start("root", -1, 7)
	tr.timed("child", root, 7, func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		SelfMS map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 2 || doc.Spans[1].Parent != root || doc.Spans[1].Op != 7 || doc.SelfMS["child"] < 1 {
		t.Errorf("trace file holds %+v", doc)
	}
}

// A stall in one request must show in the latency of the requests queued
// behind it, because each is timed from when it was due, not from when a
// worker got round to it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var arrivals []arrival
	for i := 0; i < 6; i++ {
		arrivals = append(arrivals, arrival{due: time.Duration(i) * 2 * time.Millisecond})
	}
	const stall = 60 * time.Millisecond
	lag, latency := openLoop(arrivals, 1, func(_, i int, _ arrival) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	for i := 1; i < len(arrivals); i++ {
		wait := stall - arrivals[i].due
		if lag[i] < wait || latency[i] < wait {
			t.Errorf("arrival %d: lag %v, latency %v, but it waited at least %v behind the stall", i, lag[i], latency[i], wait)
		}
	}
	if lag[0] > stall/2 {
		t.Errorf("first arrival sent %v late", lag[0])
	}

	// With a worker to spare the stall hits nobody else.
	_, latency = openLoop(arrivals, 2, func(_, i int, _ arrival) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	late := 0
	for i := 1; i < len(arrivals); i++ {
		if latency[i] > stall/2 {
			late++
		}
	}
	if late > 0 {
		t.Errorf("%d requests waited although a second worker was free", late)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	sources := func(seed int64) []string {
		ks, err := generatedCases(seed, 6)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, k := range ks {
			out = append(out, k.source)
		}
		return out
	}
	if !reflect.DeepEqual(sources(5), sources(5)) {
		t.Error("one seed generated two different kernel sets")
	}
	if reflect.DeepEqual(sources(5), sources(6)) {
		t.Error("two seeds generated the same kernel set")
	}
	drawn := map[string]bool{}
	for seed := int64(0); seed < 40; seed++ {
		ks, err := generatedCases(seed, 40)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			drawn[k.name] = true
		}
		for i := 1; i < len(ks); i++ {
			if len(ks[i].source) < len(ks[i-1].source) {
				t.Fatalf("seed %d: kernel %d is smaller than kernel %d: not one per size class", seed, i, i-1)
			}
		}
		if len(ks) != 40 {
			t.Fatalf("seed %d drew %d kernels", seed, len(ks))
		}
	}
	if len(drawn) < 600 {
		t.Errorf("40 seeds drew only %d different kernels of the pool", len(drawn))
	}
	for id := range poolExcluded {
		if drawn[fmt.Sprintf("fuzz%d", id)] {
			t.Errorf("kernel %d was drawn although the pool excludes it", id)
		}
	}
	a, b := schedule(9, 200, time.Second, 5), schedule(9, 200, time.Second, 5)
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed drew two different request sequences")
	}
	if reflect.DeepEqual(a, schedule(10, 200, time.Second, 5)) {
		t.Error("two seeds drew the same request sequence")
	}
	if len(a) < 150 || len(a) > 250 {
		t.Errorf("200 req/s for 1 s drew %d arrivals", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
}

// A layer that answers wrongly must surface as a failed operation.
func TestWrongAnswerIsAFailedOperation(t *testing.T) {
	w := &engineWL{}
	e := newEnv(1, t.TempDir())
	e.tiny = true
	if err := w.setup(e); err != nil {
		t.Fatal(err)
	}
	k := w.ks[0]
	for name := range k.k.refOuts {
		k.k.refOuts[name]++
	}
	k.k.refHeap.Arrays["y"][0]++ // fir's output array
	k.window(&e.ops, "run1", 1, 0)
	if e.ops.failed != 1 || e.ops.attempted != 1 {
		t.Errorf("%d of %d operations failed, want 1 of 1", e.ops.failed, e.ops.attempted)
	}
	if lines := e.ops.causeLines(); len(lines) != 1 || !strings.Contains(lines[0], "reference") {
		t.Errorf("causes: %q", lines)
	}
}

// A cell that the backend refuses is declined, a cell that answers wrongly
// in set-up fails in every sweep, and neither ends the run or leaves the
// denominators.
func TestBadCellsAreCountedNotFatal(t *testing.T) {
	w := newCompileWL("list")
	e := newEnv(1, t.TempDir())
	e.tiny = true
	if err := w.setup(e); err != nil {
		t.Fatal(err)
	}
	wrong, refused := w.cells[0], w.cells[2] // two kernels, each on two compositions
	if wrong.k == refused.k {
		t.Fatal("the first two cells share a kernel")
	}
	for name := range wrong.k.refOuts {
		wrong.k.refOuts[name]++
	}
	wrong.k.refHeap.Arrays["y"][0]++ // fir's output array
	refused.k.source = "kernel broken("
	for _, c := range w.cells {
		*c = cell{k: c.k, t: c.t, name: c.name}
		w.fix(c)
	}
	if wrong.broken == nil || refused.refused == nil {
		t.Fatalf("set-up saw broken %v, refused %v", wrong.broken, refused.refused)
	}
	e.ops = tally{}
	if err := w.measure(e, 0); err != nil {
		t.Fatal(err)
	}
	if e.ops.attempted != len(w.cells) || e.ops.failed != 2 || e.ops.declined != 2 {
		t.Errorf("%d attempted, %d failed, %d declined; want %d, 2, 2", e.ops.attempted, e.ops.failed, e.ops.declined, len(w.cells))
	}
	var ratios []float64
	for _, c := range w.cells {
		r := 1.0
		if c.onArray() {
			r = float64(c.k.amidar) / float64(c.cycles)
		}
		ratios = append(ratios, r)
	}
	if got, want := e.m["cgra_speedup"], geomean(ratios); !near(got, want) {
		t.Errorf("cgra_speedup %v, want %v with bad cells at 1.0", got, want)
	}
}

// One tiny round of every workload, traced: every metric BENCHMARK.json
// promises is printed, the end-to-end ones are never zero, nothing fails.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.name, func(t *testing.T) {
			e := newEnv(1, t.TempDir())
			e.tiny = true
			rec, err := runWorkload(w.name, e, 0.3, true)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%d attempted, %d failed: %v", rec.Attempted, rec.Failed, rec.Causes)
			}
			for _, d := range endToEnd {
				if v := rec.Metrics[d.Name]; !(v > 0) {
					t.Errorf("%s = %v", d.Name, v)
				}
			}
			for _, want := range map[string][]string{
				"compile_list":   {"compile_ms", "sched.list_ms", "cdfg.nodes", "sched.adpcm_cycles.irrF", "trace.layer_coverage"},
				"compile_modulo": {"compile_ms", "sched.modulo_ms", "modsched.pipelined_loops", "modsched.ii_over_mii"},
				"sim_engine":     {"run1_mcps", "run16_mcps", "probed_mcps", "sim.lanes64_mcps", "sim.interp_mcps", "ir.interp_ms"},
				"serve_solo":     {"run_rps", "run_p50_ms", "run_p99_ms", "system.invoke_us", "server.handler_run_us", "server.lanes_per_flush"},
				"serve_batched":  {"run_rps", "server.batched_share", "system.invoke_batch16_us"},
				"serve_compile":  {"compile_cold_ms", "compile_warm_ms", "compile_disk_ms", "cache.put_ms", "cache.get_disk_ms", "pipeline.realize_ms"},
			}[w.name] {
				if v := rec.Metrics[want]; !(v > 0) {
					t.Errorf("%s = %v", want, v)
				}
			}
			// One tiny round times the chain and pipeline.Compile once each, so
			// this only catches a layer missing from the chain; full runs print
			// the ≥ 0.9 figure from medians over three rounds.
			if c := rec.Metrics["trace.layer_coverage"]; strings.HasPrefix(w.name, "compile_") && (c < 0.5 || c > 2) {
				t.Errorf("layer self times cover %.2f of pipeline.compile_ms", c)
			}
			if o := rec.Metrics["trace.overhead"]; !(o > 0) {
				t.Errorf("trace.overhead = %v", o)
			}
			for _, trace := range []bool{true, false} {
				rec.Trace = trace
				want := len(endToEnd)
				if trace {
					want = len(perLayer())
				}
				var line struct {
					Correct bool             `json:"correct"`
					Metrics map[string]value `json:"metrics"`
				}
				text, err := resultLine(rec)
				if err == nil {
					err = json.Unmarshal([]byte(text), &line)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !line.Correct || len(line.Metrics) != want {
					t.Errorf("result line, trace %v: correct %v, %d metrics, want %d", trace, line.Correct, len(line.Metrics), want)
				}
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	timing := metricDef{Name: "op_p50_ms", Bound: 0.10}
	exact := metricDef{Name: "cgra_speedup", Exact: true, Bound: 0.10}
	runs := func(vals ...float64) map[int64][]float64 {
		out := map[int64][]float64{}
		for i, v := range vals {
			out[int64(i)] = []float64{v}
		}
		return out
	}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b map[int64][]float64
		want string
	}{
		{"same", timing, runs(10, 10.1, 9.9, 10, 10.2), runs(10.3, 10.1, 10, 10.2, 9.9), "agree"},
		{"slower", timing, runs(10, 10.1, 9.9, 10, 10.2), runs(12, 12.1, 11.9, 12, 12.2), "disagree"},
		{"faster", timing, runs(10, 10.1, 9.9, 10, 10.2), runs(8, 8.1, 7.9, 8, 8.2), "disagree"},
		{"noisy", timing, runs(10, 14, 7, 10, 12), runs(12, 12.1, 11.9, 12, 12.2), "unresolved"},
		{"exact same", exact, runs(23.5, 21.0), runs(23.5, 21.0), "agree"},
		{"exact moved", exact, runs(23.5, 21.0), runs(23.5, 21.0000001), "disagree"},
	} {
		if _, _, _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 3; seed++ {
			rec := &record{Workload: "serve_solo", Seed: seed, Metrics: map[string]float64{"op_p50_ms": p50 + float64(seed)/100, "cgra_speedup": 25}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, b, c := write("a.json", 1), write("b.json", 1.02), write("c.json", 2)
	var out bytes.Buffer
	if n, err := compareFiles(&out, a, b); err != nil || n != 0 {
		t.Errorf("a vs b: %d disagree, %v\n%s", n, err, out.String())
	}
	if n, err := compareFiles(&out, a, c); err != nil || n != 1 {
		t.Errorf("a vs c: %d disagree, %v\n%s", n, err, out.String())
	}
	if !strings.Contains(out.String(), "op_p50_ms") || !strings.Contains(out.String(), "exact") {
		t.Errorf("report lacks a metric row:\n%s", out.String())
	}
}

// BENCHMARK.json and the harness must name the same workloads and metrics.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	var want []string
	for _, w := range workloadDefs {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, harness has %v", names, want)
	}
	check := func(kind string, got []metric, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, harness has %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			better := "lower"
			if d.Higher {
				better = "higher"
			}
			w := metric{Name: d.Name, Unit: d.Unit, Better: better}
			if bounded {
				w.Bound = d.Bound
			}
			if got[i] != w {
				t.Errorf("%s[%d] = %+v, harness has %+v", kind, i, got[i], w)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer(), false)
}
