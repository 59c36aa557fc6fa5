package main

// metricDef names one number the harness prints. BENCHMARK.json lists the
// same names, units and directions; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool // better when higher
	// Bound is the share of the first median by which the second may be
	// worse before -compare says "disagree". Zero means no bound, unless
	// Exact is set: then every run of one seed must read the same.
	Bound float64
	Exact bool
}

// endToEnd are the numbers a user of the system sees. Every workload
// reports every one of them, so their definitions are in terms of the
// workload's own operation (bench/README.md spells each one out):
//
//	compile_*      one compile of one cell
//	sim_engine     one kernel invocation (latency: single run; rate: 16-lane batches)
//	serve_*        one /v1/run request (latency: open loop; rate: closed loop)
//	serve_compile  one /v1/compile request, cold, repeated and after a restart
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "ok_ratio", Unit: "ratio", Higher: true, Bound: 0.05, Exact: true},
	{Name: "cgra_speedup", Unit: "x", Higher: true, Bound: 0.10, Exact: true},
	{Name: "op_p50_ms", Unit: "ms", Bound: 0.25},
	{Name: "op_p90_ms", Unit: "ms", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Higher: true, Bound: 0.25},
}

// ledgers are the issue's workload-specific end-to-end numbers. Each
// exists on only some workloads, which BENCHMARK.json's end_to_end list
// cannot express, so the file carries them among the per-layer metrics;
// -compare still holds them to these bounds. They come from the untraced
// measurement in every run.
var ledgers = []metricDef{
	{Name: "fail_ratio", Unit: "ratio", Exact: true},
	{Name: "compile_ms", Unit: "ms", Bound: 0.10},
	{Name: "run1_mcps", Unit: "Mcyc/s", Higher: true, Bound: 0.10},
	{Name: "run16_mcps", Unit: "Mcyc/s", Higher: true, Bound: 0.10},
	{Name: "probed_mcps", Unit: "Mcyc/s", Higher: true, Bound: 0.10},
	{Name: "run_rps", Unit: "1/s", Higher: true, Bound: 0.10},
	{Name: "run_p50_ms", Unit: "ms", Bound: 0.10},
	{Name: "run_p99_ms", Unit: "ms", Bound: 0.25},
	{Name: "compile_cold_ms", Unit: "ms", Bound: 0.10},
	{Name: "compile_warm_ms", Unit: "ms", Bound: 0.10},
	{Name: "compile_disk_ms", Unit: "ms", Bound: 0.10},
}

var (
	meshTags     = []string{"mesh4", "mesh9", "mesh16", "irrB", "irrF"}
	engineKernel = []string{"fir", "matmul", "bsort", "gcd", "bitcount", "adpcm"}
	serveKernel  = []string{"gcd", "fir", "dot", "bitcount", "adpcm_decode"}
)

// layers are single-layer numbers, measured from outside by timing calls
// into each layer's public functions. A workload that does not run a layer
// reports 0 for it.
func layers() []metricDef {
	ms := func(n string) metricDef { return metricDef{Name: n, Unit: "ms"} }
	usec := func(n string) metricDef { return metricDef{Name: n, Unit: "us"} }
	count := func(n string) metricDef { return metricDef{Name: n, Unit: "count"} }
	mcps := func(n string) metricDef { return metricDef{Name: n, Unit: "Mcyc/s", Higher: true} }
	out := []metricDef{
		ms("irtext.parse_ms"),
		ms("opt.apply_ms"), count("opt.stmts_out"),
		ms("cdfg.build_ms"), count("cdfg.nodes"), count("cdfg.blocks"),
		ms("sched.list_ms"), ms("sched.modulo_ms"),
		count("sched.copies"), {Name: "sched.fused_pwrites", Unit: "count", Higher: true}, count("sched.cbox_ops"),
	}
	for _, t := range meshTags {
		out = append(out, metricDef{Name: "sched.adpcm_cycles." + t, Unit: "cycles"})
	}
	out = append(out,
		metricDef{Name: "modsched.pipelined_loops", Unit: "count", Higher: true},
		metricDef{Name: "modsched.ii_over_mii", Unit: "ratio"},
		count("modsched.backtracks"), count("modsched.failed_cells"),
		ms("ctxgen.generate_ms"), count("ctxgen.contexts"), count("ctxgen.max_rf"),
		ms("sim.predecode_ms"),
	)
	for _, arm := range []string{"run1", "run16", "probed"} {
		for _, k := range engineKernel {
			out = append(out, mcps("sim."+arm+"_mcps."+k))
		}
	}
	out = append(out,
		mcps("sim.lanes1_mcps"), mcps("sim.lanes4_mcps"), mcps("sim.lanes64_mcps"), mcps("sim.interp_mcps"),
		count("sim.run1_allocs"),
		ms("ir.interp_ms"),
		ms("pipeline.compile_ms"), ms("pipeline.key_ms"), ms("pipeline.artifact_ms"), ms("pipeline.realize_ms"),
		metricDef{Name: "pipeline.artifact_bytes", Unit: "bytes"},
		ms("cache.put_ms"), ms("cache.get_mem_ms"), ms("cache.get_disk_ms"),
		metricDef{Name: "cache.entry_bytes", Unit: "bytes"},
		ms("system.synthesize_ms"), usec("system.invoke_us"), usec("system.invoke_batch16_us"),
		usec("server.handler_run_us"), usec("server.http_us"),
	)
	for _, k := range serveKernel {
		out = append(out, ms("server.run_p50_ms."+k))
	}
	out = append(out,
		metricDef{Name: "server.lanes_per_flush", Unit: "count", Higher: true},
		metricDef{Name: "server.batched_share", Unit: "ratio", Higher: true},
		count("server.shed"),
		ms("loadgen.lag_p99_ms"),
		metricDef{Name: "proc.peak_rss_mb", Unit: "MB"},
		count("proc.allocs_per_op"),
		metricDef{Name: "trace.overhead", Unit: "ratio"},
		metricDef{Name: "trace.layer_coverage", Unit: "ratio", Higher: true},
	)
	return out
}

// perLayer is what a traced run reports: the ledgers, then the layers.
func perLayer() []metricDef { return append(append([]metricDef(nil), ledgers...), layers()...) }

// workloadDefs names the workloads in the order BENCHMARK.json lists them.
var workloadDefs = []struct {
	name string
	make func() runner
}{
	{"compile_list", func() runner { return newCompileWL("list") }},
	{"compile_modulo", func() runner { return newCompileWL("modulo") }},
	{"sim_engine", func() runner { return &engineWL{} }},
	{"serve_solo", func() runner { return &serveWL{} }},
	{"serve_batched", func() runner { return &serveWL{batched: true} }},
	{"serve_compile", func() runner { return &serveCompileWL{} }},
}
