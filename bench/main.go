// Command bench is the repository's one benchmark: six workloads over the
// compile → run → serve path, every answer checked against the reference
// interpreter, every timing a median over rounds. See README.md.
//
//	go run ./bench -workload compile_list -seed 1 -seconds 15
//	go run ./bench -workload serve_solo -seed 1 -trace 1
//	go run ./bench -compare bench/out/a.json bench/out/b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// runner is one workload. setup builds everything up to the first timed
// round; measure is the untraced run the end-to-end numbers come from;
// traced is the shorter pass that records spans and per-layer numbers.
type runner interface {
	setup(e *env) error
	measure(e *env, budget time.Duration) error
	traced(e *env) error
	teardown()
}

// env is what a workload gets: its inputs' seed, where it may write, and
// where its numbers go.
type env struct {
	seed int64
	tiny bool   // tests: one small round of everything
	tmp  string // scratch directory for cache dirs, inside the checkout
	tr   *tracer
	ops  tally

	m      map[string]float64
	detail map[string]summary
}

func newEnv(seed int64, tmp string) *env {
	return &env{seed: seed, tmp: tmp, m: map[string]float64{}, detail: map[string]summary{}}
}

func (e *env) set(name string, v float64) { e.m[name] = v }

// setDetail records a median together with its quartiles and sample count.
func (e *env) setDetail(name string, s summary) {
	e.m[name] = s.Median
	e.detail[name] = s
}

// record is one run as -out stores it and -compare reads it.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Declined  int                `json:"declined"`
	Causes    []string           `json:"causes,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Detail    map[string]summary `json:"detail,omitempty"`
}

// Set-up runs at least minSetups times, and a cheap one until setupTime has
// gone by or maxSetups is reached; setup_s is the median. The first pass
// pays for cold code and a growing heap, the later ones do not, and a
// set-up of a few milliseconds needs many passes for a steady median.
const (
	minSetups = 3
	maxSetups = 15
	setupTime = time.Second
)

// runWorkload is the whole of one run. With trace set, the untraced
// measurement is cut to a third so that the traced pass fits in the same
// wall time.
func runWorkload(name string, e *env, seconds float64, trace bool) (*record, error) {
	var r runner
	for _, w := range workloadDefs {
		if w.name == name {
			r = w.make()
		}
	}
	if r == nil {
		return nil, fmt.Errorf("no workload %q", name)
	}
	defer r.teardown()
	var setups []float64
	for first := time.Now(); ; r.teardown() {
		e.ops = tally{}
		t0 := time.Now()
		if err := r.setup(e); err != nil {
			return nil, fmt.Errorf("set-up: %v", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if n := len(setups); e.tiny || n >= maxSetups || (n >= minSetups && time.Since(first) >= setupTime) {
			break
		}
	}
	e.setDetail("setup_s", summarize(setups))

	budget := time.Duration(seconds * float64(time.Second))
	if trace {
		budget /= 3
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := r.measure(e, budget); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	e.set("ok_ratio", e.ops.okRatio())
	e.set("fail_ratio", 1-e.ops.okRatio())
	if trace {
		e.set("proc.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(e.ops.attempted))
		e.tr = newTracer()
		if err := r.traced(e); err != nil {
			return nil, fmt.Errorf("traced pass: %v", err)
		}
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			e.set("proc.peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
		}
	}
	return &record{
		Workload: name, Seed: e.seed, Seconds: seconds, Trace: trace,
		Attempted: e.ops.attempted, Failed: e.ops.failed, Declined: e.ops.declined,
		Causes: e.ops.causeLines(), Metrics: e.m, Detail: e.detail,
	}, nil
}

// value is one metric in the result line the driver reads.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
func resultLine(rec *record) (string, error) {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer()
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{rec.Metrics[d.Name], d.Unit}
	}
	// Marshal refuses NaN and Inf, which a metric becomes when its
	// denominator was never measured; better no result than a made-up one.
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, metrics})
	return string(line), err
}

// printReport prints every metric the run produced, by name, with its unit
// and, for timings, quartiles and sample count.
func printReport(rec *record) {
	fmt.Printf("workload %s  seed %d  %gs  trace %v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Printf("operations: %d attempted, %d failed, %d declined\n", rec.Attempted, rec.Failed, rec.Declined)
	for _, c := range rec.Causes {
		fmt.Println("  cause:", c)
	}
	all := append(append([]metricDef(nil), endToEnd...), perLayer()...)
	for _, d := range all {
		v, ok := rec.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-28s %14.6g %-7s", d.Name, v, d.Unit)
		if s, ok := rec.Detail[d.Name]; ok {
			fmt.Printf(" q1 %.6g  q3 %.6g  n %d", s.Q1, s.Q3, s.N)
		}
		fmt.Println()
	}
}

// appendRecord adds the run to a JSON array on disk, creating it if needed.
func appendRecord(path string, rec *record) error {
	var all []*record
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	}
	all = append(all, rec)
	// One run per line keeps the committed result sets small and diffable.
	var buf bytes.Buffer
	for i, r := range all {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == 0 {
			sep = "[\n"
		}
		buf.WriteString(sep)
		buf.Write(line)
	}
	buf.WriteString("\n]\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// exitOn ends the process without a result line when a run cannot finish.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "seed of the generated kernels and request sequences")
		seconds  = flag.Float64("seconds", 15, "length of the timed measurement")
		trace    = flag.Int("trace", 0, "1: also run the traced pass and print per-layer metrics")
		out      = flag.String("out", "", "append this run to a JSON result set")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		disagree, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		exitOn(err)
		if disagree > 0 {
			os.Exit(1)
		}
		return
	}

	// Cache directories live under the checkout so the benchmark writes
	// nowhere else.
	tmp, err := os.MkdirTemp(scratchRoot(), "run-")
	exitOn(err)
	e := newEnv(*seed, tmp)
	rec, err := runWorkload(*workload, e, *seconds, *trace != 0)
	os.RemoveAll(tmp)
	exitOn(err)
	if e.tr != nil {
		path := filepath.Join("bench", "out", "trace-"+rec.Workload+".json")
		exitOn(e.tr.write(path))
		fmt.Println("spans written to", path)
	}
	printReport(rec)
	if *out != "" {
		exitOn(appendRecord(*out, rec))
	}
	line, err := resultLine(rec)
	exitOn(err)
	fmt.Println(line)
}

// scratchRoot is .bench_build in the working directory, where run.sh also
// keeps the binary and the build cache.
func scratchRoot() string {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "."
	}
	return dir
}
