package drill

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"cgra/internal/obs"
	"cgra/internal/server"
)

// LoadgenConfig drives Loadgen.
type LoadgenConfig struct {
	Target  string
	Clients int
	// Iters is runs per client (0 = 8).
	Iters int
	// ExpectWarm fails unless every first compile is served from the cache.
	ExpectWarm bool
	Seed       int64
	// SlowLog, when positive, logs every run whose client-observed latency
	// crosses it, with the trace ID to paste into /debug/traces/{id}.
	SlowLog time.Duration
	// TraceOut, when set, fetches the daemon's flight recorder after the
	// load phase, validates it holds at least one complete /v1/run trace,
	// and writes the Chrome trace_event document to this file.
	TraceOut string
}

// Loadgen drives the daemon at cfg.Target with the mixed set: a cold and a
// warm compile of each kernel, then Clients × Iters reference-checked runs.
// It prints compile times, run p50/p99, the coalescer's lanes per flush and
// where the slowest runs spent their time, and fails on any run error or
// mismatch.
func Loadgen(cfg LoadgenConfig, out io.Writer) error {
	cfg.Clients = max(cfg.Clients, 1)
	if cfg.Iters <= 0 {
		cfg.Iters = 8
	}
	set, err := mixed()
	if err != nil {
		return err
	}
	c := server.NewClient(cfg.Target)
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		return fmt.Errorf("daemon not healthy at %s: %v", cfg.Target, err)
	}

	// Cold compile each kernel, then recompile warm. The server-reported
	// elapsed time isolates compile cost from the network.
	for _, k := range set {
		cold, err := c.Compile(ctx, k.Source, 0)
		if err != nil {
			return fmt.Errorf("compile %s: %v", k.Name, err)
		}
		if cfg.ExpectWarm && !cold.Cached {
			return fmt.Errorf("compile %s: expected warm cache, got fresh compile", k.Name)
		}
		warm, err := c.Compile(ctx, k.Source, 0)
		if err != nil {
			return fmt.Errorf("recompile %s: %v", k.Name, err)
		}
		if !warm.Cached {
			return fmt.Errorf("recompile %s: not served from cache", k.Name)
		}
		// A warm serve regularly completes under the 1 µs measurement
		// resolution; floor the denominator so the ratio stays finite.
		warmMS := max(warm.ElapsedMS, 0.001)
		fmt.Fprintf(out, "cgrad: %-14s cold %8.3f ms (%s)  warm %8.3f ms (%s)  speedup %.0fx\n",
			k.Name, cold.ElapsedMS, cold.Source, warm.ElapsedMS, warm.Source, cold.ElapsedMS/warmMS)
	}

	send := viaHTTP(c)
	r := (&Load{
		Cases: set, Workers: cfg.Clients, Iters: cfg.Iters, Seed: cfg.Seed,
		Sender:  func(int) Sender { return send },
		SlowLog: cfg.SlowLog, Log: out,
	}).Run()
	failed := r.Errors + r.Mismatches
	fmt.Fprintf(out, "cgrad: %d runs (%d on CGRA, %d coalesced, %d errors) in %.1f ms — %.0f runs/s, p50 %.3f ms, p99 %.3f ms\n",
		r.Runs, r.OnCGRA, r.Coalesced, failed, float64(r.Wall.Microseconds())/1000, r.PerSec(),
		r.Latency(50), r.Latency(99))
	// Mean lanes per flush says whether the coalescer merged lanes or
	// flushed singletons.
	if r.Flushes > 0 {
		fmt.Fprintf(out, "cgrad: coalescer: %d lanes over %.0f flushes — %.2f lanes/flush\n",
			r.Coalesced, r.Flushes, float64(r.Coalesced)/r.Flushes)
	}

	// Tail attribution: reduce the daemon's slowest-run traces to mean
	// self-time per span, so the summary says where the p99 went, not just
	// how big it was. A daemon without the /debug/traces surface (or an
	// empty reservoir) only costs the summary this section.
	if attr, n, err := p99Attribution(cfg.Target); err != nil {
		fmt.Fprintf(out, "cgrad: p99 attribution unavailable: %v\n", err)
	} else if len(attr) > 0 {
		names := make([]string, 0, len(attr))
		for name := range attr {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return attr[names[i]] > attr[names[j]] })
		fmt.Fprintf(out, "cgrad: p99 attribution over %d slowest runs (mean self-time):\n", n)
		for _, name := range names {
			fmt.Fprintf(out, "cgrad:   %-18s %8.3f ms\n", name, attr[name])
		}
	}

	if cfg.TraceOut != "" {
		if err := exportChromeTrace(cfg.Target, cfg.TraceOut, out); err != nil {
			return fmt.Errorf("trace export: %v", err)
		}
		fmt.Fprintln(out, "cgrad: chrome trace written to", cfg.TraceOut)
	}

	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed; first failure: %v", failed, r.Runs, r.First())
	}
	return nil
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
	acc[sp.Name] += max(self, 0)
}

// p99Attribution fetches the daemon's slowest-run reservoir and reduces it
// to mean self-time per span name, answering where the tail spends its
// time. Returns the attribution and how many traces it was taken over.
func p99Attribution(target string) (map[string]float64, int, error) {
	var list struct {
		Traces []*obs.TraceExport `json:"traces"`
	}
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

// exportChromeTrace fetches the daemon's flight recorder as Chrome
// trace_event JSON, validates the document parses and holds at least one
// complete /v1/run trace, and writes it to path — so CI can assert the
// tracing pipeline works end to end and archive the artifact.
func exportChromeTrace(target, path string, out io.Writer) error {
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
	runs := 0
	for _, ev := range doc.TraceEvents {
		if done, _ := ev.Args["complete"].(bool); ev.Name == "server.run" && ev.Ph == "X" && done {
			runs++
		}
	}
	if runs == 0 {
		return fmt.Errorf("no complete /v1/run trace in %d events", len(doc.TraceEvents))
	}
	fmt.Fprintf(out, "cgrad: trace export: %d events, %d complete run traces\n", len(doc.TraceEvents), runs)
	return os.WriteFile(path, data, 0o644)
}
