package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cgra/internal/adpcm"
	"cgra/internal/arch"
	"cgra/internal/cache"
	"cgra/internal/chaos"
	"cgra/internal/irtext"
	"cgra/internal/obs"
	"cgra/internal/pipeline"
	"cgra/internal/workload"
)

func testConfig(t *testing.T, cacheDir string) Config {
	t.Helper()
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	return Config{Comp: comp, Opts: pipeline.Defaults(), CacheDir: cacheDir}
}

func newTestServer(t *testing.T, cacheDir string) (*Server, *Client, func()) {
	t.Helper()
	s, err := New(testConfig(t, cacheDir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	cleanup := func() {
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
	return s, NewClient(ts.URL), cleanup
}

func compileWorkload(t *testing.T, c *Client, name string) *CompileResponse {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Compile(context.Background(), irtext.Print(w.Kernel), 0)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return resp
}

func runWorkload(t *testing.T, c *Client, name string) *RunResponse {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	host := w.Host(w.DefaultSize)
	resp, err := c.Run(context.Background(), w.Kernel.Name, w.Args(w.DefaultSize), host.Arrays)
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	// Check live-outs and heap effects against the workload reference.
	refHost := w.Host(w.DefaultSize)
	want := w.Reference(w.DefaultSize, w.Args(w.DefaultSize), refHost)
	for out, wv := range want {
		if got := resp.LiveOuts[out]; got != wv {
			t.Fatalf("%s live-out %q: got %d, want %d", name, out, got, wv)
		}
	}
	for arr, wv := range refHost.Arrays {
		got := resp.Arrays[arr]
		if len(got) != len(wv) {
			t.Fatalf("%s array %q: got %d elements, want %d", name, arr, len(got), len(wv))
		}
		for i := range wv {
			if got[i] != wv[i] {
				t.Fatalf("%s array %q[%d]: got %d, want %d", name, arr, i, got[i], wv[i])
			}
		}
	}
	return resp
}

func TestCompileAndRunOverHTTP(t *testing.T) {
	_, c, cleanup := newTestServer(t, t.TempDir())
	defer cleanup()

	resp := compileWorkload(t, c, "gcd")
	if resp.Cached || resp.Source != "compile" {
		t.Fatalf("first compile: cached=%t source=%q, want fresh compile", resp.Cached, resp.Source)
	}
	if resp.Key == "" || resp.Contexts <= 0 {
		t.Fatalf("implausible compile response: %+v", resp)
	}
	run := runWorkload(t, c, "gcd")
	if !run.OnCGRA {
		t.Fatal("run did not execute on the CGRA")
	}

	// Second compile of identical source: served without recompiling.
	resp2 := compileWorkload(t, c, "gcd")
	if !resp2.Cached || resp2.Source != "installed" {
		t.Fatalf("second compile: cached=%t source=%q, want installed", resp2.Cached, resp2.Source)
	}
	if resp2.Key != resp.Key {
		t.Fatal("cache key changed between identical compiles")
	}

	names, err := c.Kernels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "gcd" {
		t.Fatalf("kernels = %v, want [gcd]", names)
	}
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("healthz: %v", err)
	}
}

// TestConcurrentCompilesReportOneCompile: two concurrent compiles of one
// new kernel run the tool flow once, and exactly one of them says so; the
// other reports the entry it found installed.
func TestConcurrentCompilesReportOneCompile(t *testing.T) {
	s, c, cleanup := newTestServer(t, "")
	defer cleanup()
	// Hold the first compile until both requests have entered synthesis, so
	// the second queues behind it instead of arriving after it.
	bothSynthesizing := func() bool {
		n := 0
		for _, tr := range s.Flight().InFlight() {
			spans := map[string]*obs.SpanExport{}
			spanNames(tr.Export().Root, spans)
			if spans["system.synthesize"] != nil {
				n++
			}
		}
		return n == 2
	}
	s.System().CompileHook = func(ctx context.Context, kernel string) error {
		for !bothSynthesizing() {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Millisecond):
			}
		}
		return nil
	}
	source := irtext.Print(workload.GCD().Kernel)
	resps := make([]*CompileResponse, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = c.Compile(context.Background(), source, 0)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	sources := map[string]int{}
	for _, r := range resps {
		sources[r.Source]++
		if r.Cached != (r.Source != "compile") {
			t.Errorf("source %q reported cached=%t", r.Source, r.Cached)
		}
	}
	if sources["compile"] != 1 || sources["installed"] != 1 {
		t.Fatalf("sources %v, want one \"compile\" and one \"installed\"", sources)
	}
}

// TestNothingWaitsBehindColdCompile: while one kernel's cold compile is
// held, readiness answers 200 and a warm compile of another kernel answers
// with source "installed", each within a bound far below the compile
// deadline.
func TestNothingWaitsBehindColdCompile(t *testing.T) {
	s, c, cleanup := newTestServer(t, "")
	defer cleanup()
	compileWorkload(t, c, "gcd")
	entered, release := make(chan struct{}), make(chan struct{})
	s.System().CompileHook = func(ctx context.Context, kernel string) error {
		if kernel != "fir" {
			return nil
		}
		close(entered)
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	defer close(release)
	go func() { _, _ = c.Compile(context.Background(), irtext.Print(workload.FIR().Kernel), 0) }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the cold compile never started")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if rr, err := c.Ready(ctx); err != nil || !rr.Ready {
		t.Fatalf("readyz during a cold compile: %+v, %v; want 200", rr, err)
	}
	resp, err := c.Compile(ctx, irtext.Print(workload.GCD().Kernel), 0)
	if err != nil || resp.Source != "installed" {
		t.Fatalf("warm compile during a cold compile: %+v, %v; want source installed", resp, err)
	}
}

func TestCompileConflictOnDifferentSource(t *testing.T) {
	_, c, cleanup := newTestServer(t, "")
	defer cleanup()
	compileWorkload(t, c, "gcd")
	_, err := c.Compile(context.Background(), "kernel gcd(in a, inout b) { b = a + 1; }", 0)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusConflict {
		t.Fatalf("conflicting re-registration: got %v, want 409", err)
	}
}

func TestRunUnknownKernel(t *testing.T) {
	_, c, cleanup := newTestServer(t, "")
	defer cleanup()
	_, err := c.Run(context.Background(), "nope", nil, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusNotFound {
		t.Fatalf("unknown kernel: got %v, want 404", err)
	}
}

// TestRestartServesFromDiskCache proves a restarted daemon serves its
// kernels from the on-disk cache without recompiling.
func TestRestartServesFromDiskCache(t *testing.T) {
	dir := t.TempDir()
	_, c1, cleanup1 := newTestServer(t, dir)
	first := compileWorkload(t, c1, "fir")
	if first.Source != "compile" {
		t.Fatalf("cold compile source %q", first.Source)
	}
	cleanup1()

	s2, c2, cleanup2 := newTestServer(t, dir)
	defer cleanup2()
	second := compileWorkload(t, c2, "fir")
	if !second.Cached || second.Source != cache.SourceDisk {
		t.Fatalf("restarted compile: cached=%t source=%q, want disk", second.Cached, second.Source)
	}
	if second.Key != first.Key {
		t.Fatal("cache key not stable across restart")
	}
	if run := runWorkload(t, c2, "fir"); !run.OnCGRA {
		t.Fatal("cache-served kernel did not accelerate")
	}
	if hits := s2.Metrics().Counter("cgra_cache_hits_total", obs.L("tier", "disk")).Value(); hits == 0 {
		t.Fatal("disk hit not counted in cgra_cache_hits_total")
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Comp: comp, Opts: pipeline.Defaults(), MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	c := NewClient(ts.URL)

	// Occupy the single admission slot, then any request is shed with 429.
	s.sem <- struct{}{}
	_, err = c.Kernels(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server: got %v, want 429", err)
	}
	if s.shed.Value() == 0 {
		t.Fatal("shed request not counted")
	}
	<-s.sem
	if _, err := c.Kernels(context.Background()); err != nil {
		t.Fatalf("after slot freed: %v", err)
	}
}

func TestCompileDeadlineReturns504(t *testing.T) {
	// An aggressive unroll factor makes the adpcm compile take ~100 ms, so
	// a 1 ms deadline reliably expires inside the scheduler — whether the
	// body carries it or only the announced header does.
	cases := []struct {
		name   string
		bodyMS int64
		header string
	}{
		{"body deadline_ms", 1, ""},
		{"header only", 0, "1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, "")
			cfg.Opts = pipeline.Options{UnrollFactor: 64, CSE: true, ConstFold: true}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer s.Shutdown(context.Background())
			body, err := json.Marshal(CompileRequest{Source: adpcm.KernelSource, DeadlineMS: tc.bodyMS})
			if err != nil {
				t.Fatal(err)
			}
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/compile", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.header != "" {
				req.Header.Set(deadlineHeader, tc.header)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusGatewayTimeout || e.Code != codeDeadline {
				t.Fatalf("deadline compile: HTTP %d code %q, want 504 %q", resp.StatusCode, e.Code, codeDeadline)
			}
		})
	}
}

// TestDrainUnderLoad sends concurrent run requests, initiates shutdown
// while they are in flight, and requires every request to complete cleanly:
// either a 2xx result or an orderly 503 "draining" JSON response — never a
// connection reset.
func TestDrainUnderLoad(t *testing.T) {
	s, err := New(testConfig(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	c := NewClient("http://" + ln.Addr().String())
	// Single-shot client: this test asserts the raw drain responses; the
	// retry loop would paper over the 503s (and chase the closed listener).
	c.MaxAttempts = 1
	compileWorkload(t, c, "fir")

	w, err := workload.ByName("fir")
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	// Requests the server has begun handling: completed plus in flight.
	// Total is read first, so a request finishing between the two reads is
	// missed, never counted twice.
	begun := func() int { return int(s.flight.Total()) + len(s.flight.InFlight()) }
	before := begun()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			host := w.Host(w.DefaultSize)
			_, err := c.Run(context.Background(), "fir", w.Args(w.DefaultSize), host.Arrays)
			errs <- err
		}()
	}
	// Shut down only once the server has taken all n requests off the
	// listener, so shutdown races with genuinely in-flight requests: a
	// connection still in the accept backlog is reset by the kernel when the
	// listener closes, which no drain logic can prevent.
	for deadline := time.Now().Add(10 * time.Second); begun() < before+n; {
		if time.Now().After(deadline) {
			t.Fatalf("server began %d of %d requests within 10s", begun()-before, n)
		}
		time.Sleep(time.Millisecond)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i := 0; i < n; i++ {
		err := <-errs
		if err == nil {
			continue
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Code == http.StatusServiceUnavailable {
			continue // orderly drain rejection
		}
		t.Fatalf("in-flight request failed uncleanly during drain: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after clean shutdown", err)
	}
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("daemon still serving after shutdown")
	}
}

// TestConcurrentMixedKernels soaks the handler with concurrent compiles and
// reference-checked runs of a mixed kernel set (run under -race in CI).
func TestConcurrentMixedKernels(t *testing.T) {
	_, c, cleanup := newTestServer(t, t.TempDir())
	defer cleanup()
	kernels := []string{"gcd", "fir", "dot", "bitcount"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				name := kernels[(g+i)%len(kernels)]
				w, err := workload.ByName(name)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Compile(context.Background(), irtext.Print(w.Kernel), 0); err != nil {
					t.Errorf("compile %s: %v", name, err)
					return
				}
				host := w.Host(w.DefaultSize)
				resp, err := c.Run(context.Background(), w.Kernel.Name, w.Args(w.DefaultSize), host.Arrays)
				if err != nil {
					t.Errorf("run %s: %v", name, err)
					return
				}
				want := w.Reference(w.DefaultSize, w.Args(w.DefaultSize), w.Host(w.DefaultSize))
				for out, wv := range want {
					if got := resp.LiveOuts[out]; got != wv {
						t.Errorf("%s live-out %q: got %d, want %d", name, out, got, wv)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestMetricsEndpoint(t *testing.T) {
	_, c, cleanup := newTestServer(t, t.TempDir())
	defer cleanup()
	compileWorkload(t, c, "gcd")
	resp, err := http.Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, want := range []string{"cgra_server_requests_total", "cgra_cache_misses_total", "cgra_system_invocations_total"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestLivenessVsReadiness pins the split: /healthz is liveness and stays
// 200 while draining (an orchestrator must not kill a draining daemon),
// /readyz is readiness and flips to 503 with the reason spelled out.
func TestLivenessVsReadiness(t *testing.T) {
	s, c, cleanup := newTestServer(t, "")
	defer cleanup()
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("liveness: %v", err)
	}
	rr, err := c.Ready(context.Background())
	if err != nil {
		t.Fatalf("readiness: %v", err)
	}
	if !rr.Ready || rr.Draining || rr.Brownout || rr.CacheDiskDegraded || len(rr.OpenBreakers) != 0 {
		t.Fatalf("fresh daemon not ready: %+v", rr)
	}
	s.draining.Store(true)
	defer s.draining.Store(false)
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("draining daemon failed liveness: %v", err)
	}
	rr, err = c.Ready(context.Background())
	if err == nil || rr == nil {
		t.Fatalf("draining readiness: err=%v rr=%v, want 503 with report", err, rr)
	}
	if rr.Ready || !rr.Draining {
		t.Fatalf("draining readiness report: %+v", rr)
	}
}

// TestErrorBodiesCarryCodes pins the machine-readable error envelope.
func TestErrorBodiesCarryCodes(t *testing.T) {
	_, c, cleanup := newTestServer(t, "")
	defer cleanup()
	_, err := c.Run(context.Background(), "nope", nil, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.ErrCode != codeUnknownKernel {
		t.Fatalf("unknown kernel: got %v (code %q), want code %q", err, apiErr.ErrCode, codeUnknownKernel)
	}
	_, err = c.Compile(context.Background(), "this is not ir", 0)
	if !errors.As(err, &apiErr) || apiErr.ErrCode != codeBadRequest {
		t.Fatalf("bad source: got %v, want code %q", err, codeBadRequest)
	}
	// A heap too small for the run faults on the array and again on the
	// host recovery ladder: the failure is the request's own, not a 5xx.
	compileWorkload(t, c, "dot")
	req, _ := dotReq(t, 8)
	req.Arrays = map[string][]int32{"a": {}, "b": {}}
	_, err = c.RunReq(context.Background(), req)
	if !errors.As(err, &apiErr) || apiErr.ErrCode != codeRunFailed {
		t.Fatalf("failing run: got %v, want code %q", err, codeRunFailed)
	}
}

// TestDeadlineAwareShedding proves a request that announces an unmeetable
// deadline is rejected immediately — with Retry-After hints — instead of
// being admitted to fail slowly.
func TestDeadlineAwareShedding(t *testing.T) {
	s, c, cleanup := newTestServer(t, "")
	defer cleanup()
	// Teach admission that "kernels" takes ~1s.
	s.est.observe("kernels", time.Second)

	req, err := http.NewRequest(http.MethodGet, c.Base+"/v1/kernels", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(deadlineHeader, "5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("unmeetable deadline: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get(retryAfterMSHeader) == "" {
		t.Fatal("shed response missing Retry-After hints")
	}
	var e struct {
		Code         string `json:"code"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != codeDeadlineUnmeetable || e.RetryAfterMS <= 0 {
		t.Fatalf("shed body: %+v", e)
	}
	if s.deadlineShed.Value() != 1 {
		t.Fatal("deadline shed not counted")
	}
	// No deadline announced: same endpoint is served.
	if _, err := c.Kernels(context.Background()); err != nil {
		t.Fatalf("deadline-free request shed: %v", err)
	}
	// Client integration: a context deadline is announced automatically,
	// and the retry loop gives up rather than sleeping past it.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = c.Kernels(ctx)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.ErrCode != codeDeadlineUnmeetable {
		t.Fatalf("client with tight deadline: got %v, want %q", err, codeDeadlineUnmeetable)
	}
}

// TestBrownoutServesRunDegraded proves /v1/run overflow under sustained
// shedding is served by the host interpreter — correct, marked degraded —
// while other endpoints still shed, and readiness reports the brownout.
func TestBrownoutServesRunDegraded(t *testing.T) {
	cfg := testConfig(t, "")
	cfg.MaxInFlight = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.bo.threshold = 1
	s.bo.hold = time.Minute
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	c := NewClient(ts.URL)
	compileWorkload(t, c, "fir")

	w, err := workload.ByName("fir")
	if err != nil {
		t.Fatal(err)
	}
	// Saturate admission, then overflow a run: the first shed arms
	// brownout (threshold 1) and the request is served degraded.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	host := w.Host(w.DefaultSize)
	resp, err := c.Run(context.Background(), "fir", w.Args(w.DefaultSize), host.Arrays)
	if err != nil {
		t.Fatalf("brownout run: %v", err)
	}
	if !resp.Degraded || resp.OnCGRA {
		t.Fatalf("brownout run: degraded=%t on_cgra=%t, want degraded host run", resp.Degraded, resp.OnCGRA)
	}
	refHost := w.Host(w.DefaultSize)
	want := w.Reference(w.DefaultSize, w.Args(w.DefaultSize), refHost)
	for out, wv := range want {
		if got := resp.LiveOuts[out]; got != wv {
			t.Fatalf("brownout live-out %q: got %d, want %d", out, got, wv)
		}
	}
	if s.brownoutServes.Value() != 1 {
		t.Fatal("brownout serve not counted")
	}
	// Non-run overflow still sheds.
	single := NewClient(ts.URL)
	single.MaxAttempts = 1
	_, err = single.Kernels(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusTooManyRequests {
		t.Fatalf("non-run overflow during brownout: got %v, want 429", err)
	}
	// Readiness reports the brownout so load balancers route around it.
	rr, _ := c.Ready(context.Background())
	if rr == nil || rr.Ready || !rr.Brownout {
		t.Fatalf("brownout readiness report: %+v", rr)
	}
}

// TestCacheDiskFailureBrownsOut proves a cache disk stuck at ENOSPC fails
// the store over to degraded mode without failing compiles, arms brownout
// for run overflow, and surfaces on /readyz.
func TestCacheDiskFailureBrownsOut(t *testing.T) {
	inj := chaos.New(chaos.Plan{ENOSPCEvery: 1}, nil, nil)
	cfg := testConfig(t, t.TempDir())
	cfg.CacheFS = inj
	cfg.CacheScrubInterval = -1
	cfg.MaxInFlight = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	c := NewClient(ts.URL)

	// The compile succeeds even though its cache install hits ENOSPC...
	compileWorkload(t, c, "gcd")
	// ...and once the write-behind commit has run (its ENOSPC is the
	// error Flush returns), the store is memory-only degraded, which arms
	// brownout.
	_ = s.Cache().Flush()
	if !s.Cache().Degraded() {
		t.Fatal("store not degraded after ENOSPC install")
	}
	if !s.BrownoutActive() {
		t.Fatal("degraded cache disk did not arm brownout")
	}
	s.sem <- struct{}{}
	w, err := workload.ByName("gcd")
	if err != nil {
		t.Fatal(err)
	}
	host := w.Host(w.DefaultSize)
	resp, err := c.Run(context.Background(), "gcd", w.Args(w.DefaultSize), host.Arrays)
	<-s.sem
	if err != nil {
		t.Fatalf("overflow run with degraded cache: %v", err)
	}
	if !resp.Degraded {
		t.Fatal("overflow run not served by the brownout path")
	}
	rr, _ := c.Ready(context.Background())
	if rr == nil || !rr.CacheDiskDegraded {
		t.Fatalf("readiness does not report the degraded cache disk: %+v", rr)
	}
}

// TestRunBodyContract pins which /v1/run bodies the daemon accepts, and
// what it makes of them, through the HTTP handler: the request-body wire
// contract every decoder of a run body must keep.
func TestRunBodyContract(t *testing.T) {
	s, c, cleanup := newTestServer(t, "")
	defer cleanup()
	compileWorkload(t, c, "dot")
	// dot computes s = a·b over the first n elements: 1·3 + 2·4 = 11.
	const arrays = `"arrays":{"a":[1,2],"b":[3,4]}`
	cases := []struct {
		name   string
		body   string
		status int
		code   string // error code, for a non-200 status
		s      int32  // live-out s, for a 200
		echo   string // a fragment the 200 body must carry
	}{
		{"empty body", ``, 400, codeBadRequest, 0, ""},
		{"truncated object", `{"kernel":"dot","args":{"n":2`, 400, codeBadRequest, 0, ""},
		{"fraction", `{"kernel":"dot","args":{"n":1.5},` + arrays + `}`, 400, codeBadRequest, 0, ""},
		{"exponent", `{"kernel":"dot","args":{"n":1e3},` + arrays + `}`, 400, codeBadRequest, 0, ""},
		{"int32 overflow", `{"kernel":"dot","args":{"n":4294967296},` + arrays + `}`, 400, codeBadRequest, 0, ""},
		{"args array", `{"kernel":"dot","args":[],` + arrays + `}`, 400, codeBadRequest, 0, ""},
		{"numeric kernel", `{"kernel":5,"args":{"n":2,"s":0},` + arrays + `}`, 400, codeBadRequest, 0, ""},
		{"syntax error in unknown field", `{"kernel":"dot","x":[1,}],"args":{"n":2,"s":0},` + arrays + `}`, 400, codeBadRequest, 0, ""},
		{"null body", `null`, 404, codeUnknownKernel, 0, ""},
		{"plain", `{"kernel":"dot","args":{"n":2,"s":0},` + arrays + `}`, 200, "", 11, ""},
		{"case-folded keys", `{"KERNEL":"dot","Args":{"n":2,"s":0},"ARRAYS":{"a":[1,2],"b":[3,4]}}`, 200, "", 11, ""},
		{"unknown fields", `{"x":{"y":[1,"z",null,true,{}]},"kernel":"dot","w":-1.5e3,"args":{"n":2,"s":0},` + arrays + `}`, 200, "", 11, ""},
		{"surrounding whitespace", " \r\n\t{\"kernel\":\"dot\",\"args\":{\"n\":2,\"s\":0}," + arrays + "}\n\t ", 200, "", 11, ""},
		{"trailing bytes", `{"kernel":"dot","args":{"n":2,"s":0},` + arrays + `}}garbage{`, 200, "", 11, ""},
		{"duplicate args merge", `{"kernel":"dot","args":{"n":2},"args":{"s":7},` + arrays + `}`, 200, "", 11, ""},
		{"unread null array", `{"kernel":"dot","args":{"n":2,"s":0},"arrays":{"a":[1,2],"b":[3,4],"unused":null}}`, 200, "", 11, `"unused":null`},
		{"null arrays at n 0", `{"kernel":"dot","args":{"n":0,"s":0},"arrays":{"a":null,"b":null}}`, 200, "", 0, `"arrays":{"a":null,"b":null}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(tc.body)))
			body := rec.Body.String()
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, body)
			}
			if tc.status != http.StatusOK {
				var e errorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != tc.code {
					t.Fatalf("error code %q (%v), want %q: %s", e.Code, err, tc.code, body)
				}
				return
			}
			var resp RunResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("response: %v: %s", err, body)
			}
			if resp.LiveOuts["s"] != tc.s {
				t.Fatalf("s = %d, want %d: %s", resp.LiveOuts["s"], tc.s, body)
			}
			if !strings.Contains(body, tc.echo) {
				t.Fatalf("response lacks %s: %s", tc.echo, body)
			}
		})
	}
}
