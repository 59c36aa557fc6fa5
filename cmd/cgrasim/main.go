// Command cgrasim compiles a kernel and executes it on the cycle-accurate
// CGRA simulator, cross-checking against the reference interpreter.
//
// Usage:
//
//	cgrasim -kernel dot.k -comp "9 PEs" -arg n=8 -arg s=0 \
//	        -array a=1,2,3,4,5,6,7,8 -array b=8,7,6,5,4,3,2,1
//
// Built-in inputs replace -kernel: -workload adpcm decodes the paper's
// ADPCM input vector; -workload fir (or any name from the workload
// library) runs that kernel at its default size.
//
// Observability: -metrics FILE dumps compile-phase timings, scheduler
// statistics and simulator performance counters (Prometheus text by
// default, -metrics-format json for JSON); -explain prints why the
// scheduler rejected placements; -serve :6060 exposes /metrics and
// net/http/pprof for the duration of the process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cgra/internal/arch"
	"cgra/internal/drill"
	"cgra/internal/fault"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/obs"
	"cgra/internal/pipeline"
	"cgra/internal/sched"
	"cgra/internal/sim"
	"cgra/internal/system"
	"cgra/internal/trace"
)

type argList []string

func (a *argList) String() string     { return strings.Join(*a, ",") }
func (a *argList) Set(s string) error { *a = append(*a, s); return nil }

func main() {
	kernelPath := flag.String("kernel", "", "kernel source file (or use -workload)")
	workloadName := flag.String("workload", "", "built-in input: adpcm or a workload-library name (fir, matmul, ...)")
	compName := flag.String("comp", "9 PEs", "evaluated composition name")
	jsonPath := flag.String("json", "", "JSON composition description (overrides -comp)")
	backendFlag := flag.String("backend", "list", "scheduling backend: list, modulo, or auto (auto compiles both and keeps whichever verifies faster on the given inputs; soak/fault runs normalize auto to list)")
	unroll := flag.Int("unroll", 2, "inner-loop unroll factor (1 = off; modulo forces 1)")
	verify := flag.Bool("verify", true, "cross-check against the reference interpreter")
	vcdPath := flag.String("vcd", "", "write a VCD waveform of the run to this file")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the deterministic fault plan")
	maxCycles := flag.Int64("max-cycles", 0, "watchdog cycle budget per CGRA run (0 = default)")
	soak := flag.Int("soak", 0, "drive N concurrent invocation streams through the online-synthesis system")
	soakIters := flag.Int("soak-iters", 50, "invocations per soak stream")
	metricsPath := flag.String("metrics", "", "write compile + simulation metrics to this file")
	metricsFormat := flag.String("metrics-format", "prom", "metrics file format: prom or json")
	explain := flag.Bool("explain", false, "print the scheduler's candidate-rejection summary")
	serveAddr := flag.String("serve", "", "serve /metrics and net/http/pprof on this address (e.g. :6060)")
	traceJSON := flag.String("trace-json", "", "write a Chrome trace_event JSON of the compile and run to this file (load in chrome://tracing or Perfetto)")
	var args argList
	var arrays argList
	var faultSpecs argList
	flag.Var(&args, "arg", "scalar argument name=value (repeatable)")
	flag.Var(&arrays, "array", "array argument name=v0,v1,... or name=zeros:N (repeatable)")
	flag.Var(&faultSpecs, "fault", "inject a fault: pe:N, link:SRC-DST or bit:N (repeatable)")
	flag.Parse()

	if *metricsFormat != "prom" && *metricsFormat != "json" {
		fatal(fmt.Errorf("unknown -metrics-format %q (want prom or json)", *metricsFormat))
	}
	backend, err := pipeline.ParseBackend(*backendFlag)
	if err != nil {
		fatal(err)
	}
	var k *ir.Kernel
	scalars := map[string]int32{}
	host := ir.NewHost()
	switch {
	case *workloadName != "":
		var err error
		k, scalars, host, err = drill.Workload(*workloadName)
		if err != nil {
			fatal(err)
		}
	case *kernelPath != "":
		src, err := os.ReadFile(*kernelPath)
		if err != nil {
			fatal(err)
		}
		k, err = irtext.Parse(string(src))
		if err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	comp, err := loadComposition(*jsonPath, *compName)
	if err != nil {
		fatal(err)
	}
	for _, a := range args {
		name, val, err := splitArg(a)
		if err != nil {
			fatal(err)
		}
		v, err := strconv.ParseInt(val, 10, 32)
		if err != nil {
			fatal(fmt.Errorf("argument %s: %v", a, err))
		}
		scalars[name] = int32(v)
	}
	for _, a := range arrays {
		name, val, err := splitArg(a)
		if err != nil {
			fatal(err)
		}
		data, err := parseArray(val)
		if err != nil {
			fatal(fmt.Errorf("array %s: %v", name, err))
		}
		host.Arrays[name] = data
	}

	reg := obs.NewRegistry()
	opts := pipeline.Options{Backend: backend, UnrollFactor: *unroll, CSE: true, ConstFold: true, Obs: reg}
	var explainLog *sched.ExplainLog
	if *explain {
		explainLog = sched.NewExplainLog()
		opts.Sched.Explain = explainLog
	}
	if *soak > 0 {
		err := runSoak(k, comp, opts, scalars, host, faultSpecs, *faultSeed,
			*soak, *soakIters, *maxCycles, explainLog, *serveAddr, *metricsPath, *metricsFormat)
		if err != nil {
			fatal(err)
		}
		return
	}
	var metricsSrv *http.Server
	if *serveAddr != "" {
		srv, err := serveMetrics(*serveAddr, reg)
		if err != nil {
			fatal(err)
		}
		metricsSrv = srv
		defer shutdownMetrics(srv)
	}
	if len(faultSpecs) > 0 {
		if err := runResilient(k, comp, opts, scalars, host, faultSpecs, *faultSeed, *maxCycles); err != nil {
			fatal(err)
		}
		return
	}
	// -trace-json wraps the compile and the run in one local trace, so the
	// single-shot CLI produces the same span tree the daemon records.
	ctx := context.Background()
	var tr *obs.Trace
	if *traceJSON != "" {
		tr = obs.NewTrace(obs.NewTraceID(), "cgrasim", "cgrasim."+k.Name)
		ctx = obs.WithTrace(ctx, tr)
	}
	var c *pipeline.Compiled
	if backend == pipeline.BackendAuto {
		var rep *pipeline.AutoReport
		c, rep, err = pipeline.CompileAutoCtx(ctx, k, comp, opts, scalars, host)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("auto backend: selected %s (list %d cycles, modulo %d)\n",
			rep.Selected, rep.ListCycles, rep.ModuloCycles)
	} else {
		c, err = pipeline.CompileCtx(ctx, k, comp, opts)
		if err != nil {
			fatal(err)
		}
	}
	for i, pl := range c.Schedule.Pipelined {
		fmt.Printf("pipelined loop %d: II=%d MII=%d (res %d, rec %d) stages=%d backtracks=%d\n",
			i, pl.II, pl.MII, pl.ResMII, pl.RecMII, pl.Stages, pl.Backtracks)
	}
	if explainLog != nil {
		explainLog.WriteSummary(os.Stdout, 20)
		explainLog.Export(reg)
	}
	metricsWanted := *metricsPath != "" || *serveAddr != ""
	var ref *drill.Case
	if *verify {
		if ref, err = drill.NewCase(k, scalars, host); err != nil {
			fatal(err)
		}
	}
	m := sim.New(c.Program)
	if *maxCycles > 0 {
		m.MaxCycles = *maxCycles
	}
	var ctrs *sim.Counters
	if metricsWanted {
		ctrs = sim.AttachCounters(m)
	}
	var rec *trace.Recorder
	if *vcdPath != "" {
		rec = trace.NewRecorder()
		rec.Attach(m)
	}
	res, err := m.RunCtx(ctx, scalars, host)
	if err != nil {
		fatal(err)
	}
	if tr != nil {
		tr.Finish(0)
		f, err := os.Create(*traceJSON)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteChromeTrace(f, []*obs.Trace{tr}); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote trace to %s\n", *traceJSON)
	}
	if ctrs != nil {
		ctrs.Flush(reg)
	}
	if ref != nil {
		if err := ref.Check(res.LiveOuts, host); err != nil {
			fatal(fmt.Errorf("differential check failed: %v", err))
		}
	}
	if rec != nil {
		f, err := os.Create(*vcdPath)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteVCD(f, k.Name); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote waveform to %s\n", *vcdPath)
	}
	report(c.UsedContexts(), res.RunCycles, res.TransferCycles, res.Energy, res.LiveOuts, host)
	if *metricsPath != "" {
		if err := writeMetrics(*metricsPath, *metricsFormat, reg); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", *metricsPath)
	}
	if metricsSrv != nil {
		fmt.Printf("serving /metrics and /debug/pprof on %s (interrupt to exit)\n", *serveAddr)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		// The deferred shutdownMetrics drains the server before exit.
	}
}

// serveMetrics exposes the registry and the pprof handlers. It binds
// synchronously — a bad address fails here, not in a goroutine that
// swallows the error — and returns the server so the caller can Shutdown
// on exit.
func serveMetrics(addr string, reg *obs.Registry) (*http.Server, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cgrasim: serve: %v", err)
	}
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "cgrasim: serve:", err)
		}
	}()
	return srv, nil
}

// shutdownMetrics drains the metrics server; a scrape in flight gets a
// short grace period.
func shutdownMetrics(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

// writeMetrics dumps the registry to a file in the chosen format.
func writeMetrics(path, format string, reg *obs.Registry) error {
	return reg.WriteFile(path, format)
}

// runResilient executes the kernel under an armed fault plan through the
// full online-synthesis system: the kernel is synthesized onto the CGRA,
// the faults corrupt the run, and the system must detect, recover (degraded
// re-synthesis or host fallback) and still deliver the fault-free result.
func runResilient(k *ir.Kernel, comp *arch.Composition, opts pipeline.Options,
	scalars map[string]int32, host *ir.Host, specs []string, seed int64,
	maxCycles int64) error {
	faults, err := fault.ParseSpecs(specs)
	if err != nil {
		return err
	}
	// Fault-free golden reference, computed up front on untouched copies.
	ref, err := drill.NewCase(k, scalars, host)
	if err != nil {
		return err
	}

	s := newSystem(comp, opts, maxCycles)
	defer s.Close()
	if err := s.Register(k); err != nil {
		return err
	}
	if err := s.Synthesize(k.Name); err != nil {
		return fmt.Errorf("synthesis onto %s: %v", comp.Name, err)
	}
	if err := drill.Arm(s, fault.Plan{Seed: seed, Faults: faults}, os.Stdout); err != nil {
		return err
	}

	res, err := s.Invoke(k.Name, scalars, host)
	if err != nil {
		return fmt.Errorf("invocation did not survive the fault plan: %v", err)
	}
	// The system's own cross-check already gates what it commits, but the
	// acceptance bar is explicit: live-outs and heap must match the
	// fault-free reference exactly.
	if err := ref.Check(res.LiveOuts, host); err != nil {
		return fmt.Errorf("fault-free reference: %v", err)
	}

	st := s.Stats()
	switch {
	case st.FaultsInjected == 0:
		fmt.Println("fault stayed latent: the schedule never exercised the faulty hardware")
	case !res.Recovered:
		fmt.Println("fault injected but masked by the dataflow; no corruption reached a live-out")
	case res.OnCGRA && s.DegradedComposition() != nil:
		fmt.Printf("recovered: re-synthesized onto degraded composition (PEs masked: %v)\n", s.MaskedPEs())
	case res.OnCGRA:
		fmt.Println("recovered: re-execution on the full array succeeded (transient fault)")
	default:
		fmt.Println("recovered: fell back to AMIDAR host execution")
	}
	fmt.Printf("faults: injected %d, detected %d, re-syntheses %d, host fallbacks %d\n",
		st.FaultsInjected, st.FaultsDetected, st.Resyntheses, st.Fallbacks)
	fmt.Println("live-outs verified against the fault-free reference")
	fmt.Printf("cycles: %d (final run on CGRA: %v)\n", res.Cycles, res.OnCGRA)
	printValues(res.LiveOuts, host)
	return nil
}

// runSoak builds the online-synthesis system the soak drill drives (see
// drill.Soak), serves its metrics while the soak runs, and reports the
// scheduler's explain log and the metrics afterwards, pass or fail.
func runSoak(k *ir.Kernel, comp *arch.Composition, opts pipeline.Options,
	scalars map[string]int32, host *ir.Host, specs []string, seed int64,
	streams, iters int, maxCycles int64,
	explainLog *sched.ExplainLog, serveAddr, metricsPath, metricsFormat string) error {
	faults, err := fault.ParseSpecs(specs)
	if err != nil {
		return err
	}
	ref, err := drill.NewCase(k, scalars, host)
	if err != nil {
		return err
	}
	s := newSystem(comp, opts, maxCycles)
	defer s.Close()
	if err := s.Register(k); err != nil {
		return err
	}
	if serveAddr != "" {
		srv, err := serveMetrics(serveAddr, s.Metrics())
		if err != nil {
			return err
		}
		defer shutdownMetrics(srv)
		fmt.Printf("serving /metrics and /debug/pprof on %s\n", serveAddr)
	}
	soakErr := drill.Soak(s, ref, fault.Plan{Seed: seed, Faults: faults}, streams, iters, os.Stdout)
	if explainLog != nil {
		explainLog.WriteSummary(os.Stdout, 10)
		explainLog.Export(s.Metrics())
	}
	if metricsPath != "" {
		if err := s.Metrics().WriteFile(metricsPath, metricsFormat); err != nil {
			return err
		}
		fmt.Printf("wrote metrics to %s\n", metricsPath)
	}
	return soakErr
}

// newSystem builds the online-synthesis system the fault and soak paths
// drive, at threshold 1, with -max-cycles (0 = the default) as its
// watchdog cap.
func newSystem(comp *arch.Composition, opts pipeline.Options, maxCycles int64) *system.System {
	s := system.New(comp, opts, 1)
	if maxCycles > 0 {
		s.WatchdogCycles = maxCycles
	}
	return s
}

func report(ctx int, run, xfer int64, energy float64, outs map[string]int32, host *ir.Host) {
	fmt.Printf("contexts: %d, run cycles: %d, transfer cycles: %d, energy: %.1f\n",
		ctx, run, xfer, energy)
	printValues(outs, host)
}

func printValues(outs map[string]int32, host *ir.Host) {
	var names []string
	for name := range outs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %s = %d\n", name, outs[name])
	}
	var arrays []string
	for name := range host.Arrays {
		arrays = append(arrays, name)
	}
	sort.Strings(arrays)
	for _, name := range arrays {
		a := host.Arrays[name]
		if len(a) > 16 {
			fmt.Printf("  %s = %v... (%d elements)\n", name, a[:16], len(a))
		} else {
			fmt.Printf("  %s = %v\n", name, a)
		}
	}
}

func splitArg(s string) (string, string, error) {
	i := strings.IndexByte(s, '=')
	if i <= 0 {
		return "", "", fmt.Errorf("malformed argument %q (want name=value)", s)
	}
	return s[:i], s[i+1:], nil
}

func parseArray(val string) ([]int32, error) {
	if n, ok := strings.CutPrefix(val, "zeros:"); ok {
		size, err := strconv.Atoi(n)
		if err != nil || size < 0 {
			return nil, fmt.Errorf("bad zeros size %q", n)
		}
		return make([]int32, size), nil
	}
	parts := strings.Split(val, ",")
	out := make([]int32, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, err
		}
		out = append(out, int32(v))
	}
	return out, nil
}

func loadComposition(jsonPath, name string) (*arch.Composition, error) {
	if jsonPath == "" {
		return arch.ByName(name)
	}
	// PE references in the document resolve against *.json files in the
	// document's directory (the paper's Fig. 8 path-reference style).
	return arch.LoadCompositionFile(jsonPath, "")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cgrasim:", err)
	os.Exit(1)
}
