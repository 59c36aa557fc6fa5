package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cgra/internal/obs"
	"cgra/internal/workload"
)

// spanNames flattens an exported span tree into the set of span names.
func spanNames(sp *obs.SpanExport, out map[string]*obs.SpanExport) {
	if sp == nil {
		return
	}
	out[sp.Name] = sp
	for _, c := range sp.Children {
		spanNames(c, out)
	}
}

// TestRunTraceEndToEnd proves one /v1/run produces a single coherent
// trace: admission, cache and engine spans under the server root, with
// the instrumented phases accounting for (almost) all of the request's
// wall time.
func TestRunTraceEndToEnd(t *testing.T) {
	s, c, cleanup := newTestServer(t, t.TempDir())
	defer cleanup()
	compileWorkload(t, c, "dot")
	resp := runWorkload(t, c, "dot")
	if resp.TraceID == "" {
		t.Fatal("run response has no trace_id")
	}

	tr := s.Flight().Get(resp.TraceID)
	if tr == nil {
		t.Fatalf("trace %s not in the flight recorder", resp.TraceID)
	}
	exp := tr.Export()
	if !exp.Complete || exp.Status != http.StatusOK || exp.Endpoint != "run" {
		t.Fatalf("trace meta: %+v", exp)
	}
	spans := map[string]*obs.SpanExport{}
	spanNames(exp.Root, spans)
	for _, want := range []string{"server.run", "admission", "decode", "system.invoke", "cache.lookup", "engine"} {
		if spans[want] == nil {
			names := make([]string, 0, len(spans))
			for n := range spans {
				names = append(names, n)
			}
			t.Fatalf("trace missing span %q (have %v)", want, names)
		}
	}
	// The dispatch lookup saw the installed compiled entry, and the
	// engine took the predecoded fast path.
	attr := func(sp *obs.SpanExport, name string) string {
		for _, a := range sp.Attrs {
			if a.Name == name {
				return a.Value
			}
		}
		return ""
	}
	if got := attr(spans["cache.lookup"], "source"); got != "installed" {
		t.Fatalf("cache.lookup source = %q, want installed", got)
	}
	if got := attr(spans["engine"], "path"); got != "fast" {
		t.Fatalf("engine path = %q, want fast", got)
	}
	// Instrumented phases must cover the request: the top-level children
	// of the root sum to at least 90% of the root's wall time. Requests
	// here finish in tens of microseconds, where scheduler noise can eat
	// a big relative slice, so several runs get a shot at the bar.
	coverage := func(exp *obs.TraceExport) float64 {
		var covered float64
		for _, c := range exp.Root.Children {
			covered += c.DurationMS
		}
		return covered / exp.Root.DurationMS
	}
	best := coverage(exp)
	for i := 0; i < 20 && best < 0.9; i++ {
		r := runWorkload(t, c, "dot")
		if tr := s.Flight().Get(r.TraceID); tr != nil {
			if got := coverage(tr.Export()); got > best {
				best = got
			}
		}
	}
	if best < 0.9 {
		t.Fatalf("best span coverage %.1f%% of wall time (<90%%)", best*100)
	}
}

// TestCompileTraceHasPipelinePhases proves a fresh /v1/compile trace
// contains the tool-flow phase spans re-parented under the request.
func TestCompileTraceHasPipelinePhases(t *testing.T) {
	s, c, cleanup := newTestServer(t, t.TempDir())
	defer cleanup()
	resp := compileWorkload(t, c, "fir")
	if resp.TraceID == "" {
		t.Fatal("compile response has no trace_id")
	}
	tr := s.Flight().Get(resp.TraceID)
	if tr == nil {
		t.Fatalf("trace %s not recorded", resp.TraceID)
	}
	spans := map[string]*obs.SpanExport{}
	spanNames(tr.Export().Root, spans)
	for _, want := range []string{"server.compile", "admission", "system.synthesize", "cache.get", "compile", "sched", "ctxgen", "cache.put"} {
		if spans[want] == nil {
			names := make([]string, 0, len(spans))
			for n := range spans {
				names = append(names, n)
			}
			t.Fatalf("compile trace missing span %q (have %v)", want, names)
		}
	}
	// A warm recompile's trace shows the cache hit instead of a compile.
	warm := compileWorkload(t, c, "fir")
	wtr := s.Flight().Get(warm.TraceID)
	if wtr == nil {
		t.Fatalf("warm trace %s not recorded", warm.TraceID)
	}
	wspans := map[string]*obs.SpanExport{}
	spanNames(wtr.Export().Root, wspans)
	if wspans["sched"] != nil {
		t.Fatal("warm compile trace ran the scheduler")
	}
}

// TestTraceIDPropagatesThroughRetryStorm drives a client call through a
// scripted flaky front (two 503 sheds, then proxy to the real daemon) and
// proves every attempt carried the same X-Trace-Id, the error bodies
// carried it, and the final response's trace is recorded server-side
// under exactly that ID.
func TestTraceIDPropagatesThroughRetryStorm(t *testing.T) {
	s, direct, cleanup := newTestServer(t, t.TempDir())
	defer cleanup()
	compileWorkload(t, direct, "dot")

	backend := httptest.NewServer(s.Handler())
	defer backend.Close()

	var mu sync.Mutex
	var seen []string
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get("X-Trace-Id"))
		n := len(seen)
		mu.Unlock()
		if n <= 2 {
			writeShed(w, r, http.StatusServiceUnavailable, codeOverloaded, "synthetic overload", 0)
			return
		}
		// Proxy the surviving attempt to the real daemon, headers intact.
		req, err := http.NewRequest(r.Method, backend.URL+r.URL.Path, r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		if _, err := io.Copy(w, resp.Body); err != nil {
			t.Error(err)
		}
	}))
	defer front.Close()

	c := NewClient(front.URL)
	w, err := workload.ByName("dot")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Run(context.Background(), w.Kernel.Name, w.Args(w.DefaultSize), w.Host(w.DefaultSize).Arrays)
	if err != nil {
		t.Fatalf("retry storm did not recover: %v", err)
	}

	mu.Lock()
	attempts := append([]string(nil), seen...)
	mu.Unlock()
	if len(attempts) != 3 {
		t.Fatalf("%d attempts, want 3", len(attempts))
	}
	for i, id := range attempts {
		if id == "" {
			t.Fatalf("attempt %d carried no X-Trace-Id", i)
		}
		if id != attempts[0] {
			t.Fatalf("attempt %d changed trace ID: %s vs %s", i, id, attempts[0])
		}
	}
	if resp.TraceID != attempts[0] {
		t.Fatalf("response trace_id %s != propagated %s", resp.TraceID, attempts[0])
	}
	if tr := s.Flight().Get(resp.TraceID); tr == nil {
		t.Fatal("propagated trace not recorded server-side")
	}
}

// TestErrorBodyCarriesTraceID proves machine-readable error envelopes and
// client error strings expose the trace ID.
func TestErrorBodyCarriesTraceID(t *testing.T) {
	s, c, cleanup := newTestServer(t, "")
	defer cleanup()
	_, err := c.Run(context.Background(), "no-such-kernel", nil, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("got %v, want APIError", err)
	}
	if apiErr.TraceID == "" {
		t.Fatalf("APIError has no trace ID: %+v", apiErr)
	}
	if !strings.Contains(apiErr.Error(), apiErr.TraceID) {
		t.Fatalf("error string %q does not mention the trace", apiErr.Error())
	}
	// The failed request's trace is itself recorded, with the 404 status.
	tr := s.Flight().Get(apiErr.TraceID)
	if tr == nil {
		t.Fatal("failed request's trace not recorded")
	}
	if tr.Status() != http.StatusNotFound {
		t.Fatalf("trace status = %d, want 404", tr.Status())
	}
}

// TestDebugTracesEndpoint proves the server exposes the flight recorder
// over HTTP, admission-free, in both formats.
func TestDebugTracesEndpoint(t *testing.T) {
	s, c, cleanup := newTestServer(t, t.TempDir())
	defer cleanup()
	_ = s
	compileWorkload(t, c, "dot")
	resp := runWorkload(t, c, "dot")

	var list struct {
		Traces []*obs.TraceExport `json:"traces"`
	}
	httpGetJSON(t, c.Base+"/debug/traces?endpoint=run", &list)
	if len(list.Traces) == 0 {
		t.Fatal("no run traces listed")
	}
	var one obs.TraceExport
	httpGetJSON(t, c.Base+"/debug/traces/"+resp.TraceID, &one)
	if one.ID != resp.TraceID {
		t.Fatalf("trace id = %s, want %s", one.ID, resp.TraceID)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	httpGetJSON(t, c.Base+"/debug/traces?format=chrome", &chrome)
	found := false
	for _, ev := range chrome.TraceEvents {
		if ev.Name == "server.run" && ev.Ph == "X" {
			found = true
		}
	}
	if !found {
		t.Fatal("chrome export has no server.run complete event")
	}
}

// TestLatencyExemplarsLinkTraces proves the request histogram's tail
// buckets carry trace-ID exemplars pointing at recorded traces.
func TestLatencyExemplarsLinkTraces(t *testing.T) {
	s, c, cleanup := newTestServer(t, t.TempDir())
	defer cleanup()
	compileWorkload(t, c, "dot")
	runWorkload(t, c, "dot")

	var found *obs.Exemplar
	for _, mp := range s.Metrics().Snapshot() {
		if mp.Name != "cgra_server_request_seconds" {
			continue
		}
		for i := range mp.Buckets {
			if mp.Buckets[i].Exemplar != nil {
				found = mp.Buckets[i].Exemplar
			}
		}
	}
	if found == nil {
		t.Fatal("request histogram has no exemplars")
	}
	if tr := s.Flight().Get(found.TraceID); tr == nil {
		t.Fatalf("exemplar trace %s not in the flight recorder", found.TraceID)
	}
}

func httpGetJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
