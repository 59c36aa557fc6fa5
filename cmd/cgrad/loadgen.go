package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cgra/internal/adpcm"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/obs"
	"cgra/internal/server"
	"cgra/internal/workload"
)

type loadgenConfig struct {
	Target     string
	Clients    int
	Iters      int
	ExpectWarm bool
	// Seed drives the kernel mix. Worker g uses rand.NewSource(Seed+g), so
	// a given (seed, clients, iters) triple replays the exact same request
	// sequence regardless of goroutine interleaving.
	Seed int64
	// SlowLog, when positive, logs every run whose client-observed latency
	// crosses it, with the trace ID to paste into /debug/traces/{id}.
	SlowLog time.Duration
	// TraceOut, when set, fetches the daemon's flight recorder after the
	// load phase, validates it holds at least one complete /v1/run trace,
	// and writes the Chrome trace_event document to this file.
	TraceOut string
}

// lgKernel is one kernel of the mixed load set with everything needed to
// submit and reference-check it.
type lgKernel struct {
	name   string
	source string
	kernel *ir.Kernel
	args   map[string]int32
	arrays map[string][]int32
}

// traceList is the structured /debug/traces response.
type traceList struct {
	Traces []*obs.TraceExport `json:"traces"`
}

// fetchJSON GETs base+path and decodes the JSON body into out.
func fetchJSON(base, path string, out any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// selfTimes accumulates each span's self-time (duration minus direct
// children) into acc, keyed by span name.
func selfTimes(sp *obs.SpanExport, acc map[string]float64) {
	if sp == nil {
		return
	}
	self := sp.DurationMS
	for _, c := range sp.Children {
		self -= c.DurationMS
		selfTimes(c, acc)
	}
	if self < 0 {
		self = 0
	}
	acc[sp.Name] += self
}

// p99Attribution fetches the daemon's slowest-run reservoir and reduces it
// to mean self-time per span name, answering where the tail spends its
// time. Returns the attribution and how many traces it was taken over.
func p99Attribution(target string) (map[string]float64, int, error) {
	var list traceList
	if err := fetchJSON(target, "/debug/traces?endpoint=run&slowest=1", &list); err != nil {
		return nil, 0, err
	}
	acc := map[string]float64{}
	for _, t := range list.Traces {
		selfTimes(t.Root, acc)
	}
	for name := range acc {
		acc[name] /= float64(len(list.Traces))
	}
	return acc, len(list.Traces), nil
}

// percentile returns the p-th percentile (nearest-rank) of sorted latencies
// in milliseconds.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p/100*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx].Microseconds()) / 1000
}

// loadSet builds the mixed kernel set: representative workloads from the
// library plus the paper's adpcm decoder.
func loadSet() ([]*lgKernel, error) {
	var set []*lgKernel
	for _, name := range []string{"gcd", "fir", "dot", "bitcount"} {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		set = append(set, &lgKernel{
			name:   w.Kernel.Name,
			source: irtext.Print(w.Kernel),
			kernel: w.Kernel,
			args:   w.Args(w.DefaultSize),
			arrays: w.Host(w.DefaultSize).Arrays,
		})
	}
	const n = 32
	samples := adpcm.GenerateSamples(n)
	var encSt adpcm.State
	codes, err := adpcm.Encode(samples, &encSt)
	if err != nil {
		return nil, err
	}
	k := adpcm.Kernel()
	set = append(set, &lgKernel{
		name:   k.Name,
		source: adpcm.KernelSource,
		kernel: k,
		args:   adpcm.Args(n, adpcm.State{}),
		arrays: adpcm.NewHost(codes, n).Arrays,
	})
	return set, nil
}

func (k *lgKernel) freshArgs() map[string]int32 {
	out := make(map[string]int32, len(k.args))
	for n, v := range k.args {
		out[n] = v
	}
	return out
}

func (k *lgKernel) freshArrays() map[string][]int32 {
	out := make(map[string][]int32, len(k.arrays))
	for n, a := range k.arrays {
		out[n] = append([]int32(nil), a...)
	}
	return out
}

// check verifies a run response against the reference interpreter.
func (k *lgKernel) check(resp *server.RunResponse) error {
	host := ir.NewHost()
	host.Arrays = k.freshArrays()
	want, err := (&ir.Interp{}).Run(k.kernel, k.freshArgs(), host)
	if err != nil {
		return fmt.Errorf("%s: reference: %v", k.name, err)
	}
	for out, wv := range want {
		if got := resp.LiveOuts[out]; got != wv {
			return fmt.Errorf("%s: live-out %q: daemon %d, reference %d", k.name, out, got, wv)
		}
	}
	for arr, wv := range host.Arrays {
		got := resp.Arrays[arr]
		if len(got) != len(wv) {
			return fmt.Errorf("%s: array %q: daemon returned %d elements, reference %d", k.name, arr, len(got), len(wv))
		}
		for i := range wv {
			if got[i] != wv[i] {
				return fmt.Errorf("%s: array %q[%d]: daemon %d, reference %d", k.name, arr, i, got[i], wv[i])
			}
		}
	}
	return nil
}

// exportChromeTrace fetches the daemon's flight recorder as Chrome
// trace_event JSON, validates the document parses and holds at least one
// complete /v1/run trace, and writes it to path — so CI can assert the
// tracing pipeline works end to end and archive the artifact.
func exportChromeTrace(target, path string) error {
	resp, err := http.Get(target + "/debug/traces?format=chrome")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /debug/traces: HTTP %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("invalid chrome trace JSON: %v", err)
	}
	completeRuns := 0
	for _, ev := range doc.TraceEvents {
		if ev.Name == "server.run" && ev.Ph == "X" {
			if done, _ := ev.Args["complete"].(bool); done {
				completeRuns++
			}
		}
	}
	if completeRuns == 0 {
		return fmt.Errorf("no complete /v1/run trace in %d events", len(doc.TraceEvents))
	}
	fmt.Printf("cgrad: trace export: %d events, %d complete run traces\n", len(doc.TraceEvents), completeRuns)
	return os.WriteFile(path, data, 0o644)
}

func runLoadgen(cfg loadgenConfig) error {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 1
	}
	set, err := loadSet()
	if err != nil {
		return err
	}
	c := server.NewClient(cfg.Target)
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		return fmt.Errorf("daemon not healthy at %s: %v", cfg.Target, err)
	}

	// Phase 1+2: cold compile each kernel, then recompile warm. The
	// server-reported elapsed time isolates compile cost from the network.
	for _, k := range set {
		cold, err := c.Compile(ctx, k.source, 0)
		if err != nil {
			return fmt.Errorf("compile %s: %v", k.name, err)
		}
		if cfg.ExpectWarm && !cold.Cached {
			return fmt.Errorf("compile %s: expected warm cache, got fresh compile", k.name)
		}
		warm, err := c.Compile(ctx, k.source, 0)
		if err != nil {
			return fmt.Errorf("recompile %s: %v", k.name, err)
		}
		if !warm.Cached {
			return fmt.Errorf("recompile %s: not served from cache", k.name)
		}
		// A warm serve regularly completes under the 1 µs measurement
		// resolution; floor the denominator so the ratio stays finite.
		warmMS := warm.ElapsedMS
		if warmMS < 0.001 {
			warmMS = 0.001
		}
		fmt.Printf("cgrad: %-14s cold %8.3f ms (%s)  warm %8.3f ms (%s)  speedup %.0fx\n",
			k.name, cold.ElapsedMS, cold.Source, warm.ElapsedMS, warm.Source, cold.ElapsedMS/warmMS)
	}

	// Phase 3: concurrent reference-checked runs over the mixed set. Each
	// worker draws kernels from its own deterministic RNG stream (seeded
	// from -seed plus the worker index), so a (seed, clients, iters) triple
	// submits the same request sequence regardless of goroutine
	// interleaving.
	var runs, runErrors, onCGRA, batched atomic.Int64
	errCh := make(chan error, cfg.Clients)
	latencies := make([][]time.Duration, cfg.Clients)
	// flushes[g] sums 1/batch_lanes over worker g's coalesced runs: each
	// engine pass adds up to one across the lanes it carried.
	flushes := make([]float64, cfg.Clients)
	fail := func(err error) {
		runErrors.Add(1)
		select {
		case errCh <- err:
		default:
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < cfg.Clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(g)))
			lats := make([]time.Duration, 0, cfg.Iters)
			for i := 0; i < cfg.Iters; i++ {
				k := set[rng.Intn(len(set))]
				t0 := time.Now()
				resp, err := c.Run(ctx, k.name, k.freshArgs(), k.freshArrays())
				elapsed := time.Since(t0)
				lats = append(lats, elapsed)
				runs.Add(1)
				if cfg.SlowLog > 0 && elapsed >= cfg.SlowLog && err == nil {
					fmt.Printf("cgrad: slow run %-14s %8.3f ms  trace %s\n",
						k.name, float64(elapsed.Microseconds())/1000, resp.TraceID)
				}
				if err != nil {
					fail(fmt.Errorf("run %s: %v", k.name, err))
					continue
				}
				if resp.OnCGRA {
					onCGRA.Add(1)
				}
				if resp.Batched {
					batched.Add(1)
					flushes[g] += 1 / float64(resp.BatchLanes)
				}
				if err := k.check(resp); err != nil {
					fail(err)
				}
			}
			latencies[g] = lats
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)
	var allLat []time.Duration
	for _, lats := range latencies {
		allLat = append(allLat, lats...)
	}
	sort.Slice(allLat, func(i, j int) bool { return allLat[i] < allLat[j] })

	var runsPerSec float64
	if wall > 0 {
		runsPerSec = float64(runs.Load()) / wall.Seconds()
	}
	fmt.Printf("cgrad: %d runs (%d on CGRA, %d coalesced, %d errors) in %.1f ms — %.0f runs/s, p50 %.3f ms, p99 %.3f ms\n",
		runs.Load(), onCGRA.Load(), batched.Load(), runErrors.Load(), float64(wall.Microseconds())/1000, runsPerSec,
		percentile(allLat, 50), percentile(allLat, 99))

	// Mean lanes per flush says whether the coalescer merged lanes or
	// flushed singletons.
	var passes float64
	for _, f := range flushes {
		passes += f
	}
	if passes > 0 {
		fmt.Printf("cgrad: coalescer: %d lanes over %.0f flushes — %.2f lanes/flush\n",
			batched.Load(), passes, float64(batched.Load())/passes)
	}

	// Tail attribution: reduce the daemon's slowest-run traces to mean
	// self-time per span, so the summary says where the p99 went, not just
	// how big it was. A daemon without the /debug/traces surface (or an
	// empty reservoir) only costs the summary this section.
	if attr, n, err := p99Attribution(cfg.Target); err != nil {
		fmt.Fprintf(os.Stderr, "cgrad: p99 attribution unavailable: %v\n", err)
	} else if len(attr) > 0 {
		names := make([]string, 0, len(attr))
		for name := range attr {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return attr[names[i]] > attr[names[j]] })
		fmt.Printf("cgrad: p99 attribution over %d slowest runs (mean self-time):\n", n)
		for _, name := range names {
			fmt.Printf("cgrad:   %-18s %8.3f ms\n", name, attr[name])
		}
	}

	if cfg.TraceOut != "" {
		if err := exportChromeTrace(cfg.Target, cfg.TraceOut); err != nil {
			return fmt.Errorf("trace export: %v", err)
		}
		fmt.Println("cgrad: chrome trace written to", cfg.TraceOut)
	}

	if n := runErrors.Load(); n > 0 {
		select {
		case err := <-errCh:
			return fmt.Errorf("%d of %d runs failed; first failure: %v", n, runs.Load(), err)
		default:
			return fmt.Errorf("%d of %d runs failed", n, runs.Load())
		}
	}
	return nil
}
