package server

import (
	"context"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"cgra/internal/obs"
	"cgra/internal/workload"
)

// newBatchServer builds a server with request coalescing enabled and dot
// compiled/installed, so /v1/run requests are batch-eligible immediately.
func newBatchServer(t *testing.T, window time.Duration) (*Server, *Client, func()) {
	t.Helper()
	cfg := testConfig(t, t.TempDir())
	cfg.BatchWindow = window
	s, err := New(cfg)
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
	c := NewClient(ts.URL)
	compileWorkload(t, c, "dot")
	return s, c, cleanup
}

// dotReq builds a RunRequest for dot at the given size.
func dotReq(t *testing.T, size int) (RunRequest, int32) {
	t.Helper()
	w, err := workload.ByName("dot")
	if err != nil {
		t.Fatal(err)
	}
	host := w.Host(size)
	args := w.Args(size)
	want := w.Reference(size, w.Args(size), w.Host(size))
	return RunRequest{Kernel: w.Kernel.Name, Args: args, Arrays: host.Arrays}, want["s"]
}

// holdLimit saturates the daemon for dot: it holds dot's installed artifact
// at its run limit (GOMAXPROCS runs in flight) and returns the step that
// ends one held run.
func holdLimit(t *testing.T, s *Server) (release func()) {
	t.Helper()
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		release = s.System().HoldRun("dot")
	}
	if release == nil {
		t.Fatal("dot is not installed on a coalescing system")
	}
	return release
}

// waitQueued blocks until n in-flight /v1/run requests sit in a run batch.
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	for give := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		got := 0
		for _, tr := range s.Flight().InFlight() {
			spans := map[string]*obs.SpanExport{}
			spanNames(tr.Export().Root, spans)
			if spans["batch"] != nil {
				got++
			}
		}
		if got == n {
			return
		}
		if time.Now().After(give) {
			t.Fatalf("%d requests queued, want %d", got, n)
		}
	}
}

// TestRunBatchSaturated is the HTTP face of the system's coalescer (its
// rules are tested in internal/system, TestInvokeCtxCoalesces): on a
// daemon whose artifact is at its run limit, concurrent requests queue,
// and when one run ends they share one pass. Each gets its own correct
// result marked batched with its lane count, and the flush-reason counters
// move on the daemon's registry.
func TestRunBatchSaturated(t *testing.T) {
	s, c, cleanup := newBatchServer(t, time.Second)
	defer cleanup()
	release := holdLimit(t, s)

	const n = 4
	resps := make([]*RunResponse, n)
	wants := make([]int32, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		req, want := dotReq(t, 8+4*i)
		wants[i] = want
		wg.Add(1)
		go func(i int, req RunRequest) {
			defer wg.Done()
			resps[i], errs[i] = c.RunReq(context.Background(), req)
		}(i, req)
	}
	waitQueued(t, s, n)
	release()
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		if got := resps[i].LiveOuts["s"]; got != wants[i] {
			t.Errorf("lane %d: s = %d, want %d", i, got, wants[i])
		}
		if !resps[i].Batched || resps[i].BatchLanes != n {
			t.Errorf("lane %d: batched=%t batch_lanes=%d, want batched with %d lanes",
				i, resps[i].Batched, resps[i].BatchLanes, n)
		}
	}
	reg := s.Metrics()
	if got := reg.Counter("cgra_run_batched_total").Value(); got != n {
		t.Errorf("cgra_run_batched_total = %d, want %d", got, n)
	}
	if got := reg.Counter("cgra_run_batch_flush_total", obs.L("reason", "released")).Value(); got != 1 {
		t.Errorf("released flushes = %d, want 1", got)
	}
}

// TestRunBatchDeadlineSolo: the body's deadline_ms reaches the system's
// coalescer through the request context — one that cannot absorb a queue
// (under 2x the window left) runs at once, even on a saturated artifact.
func TestRunBatchDeadlineSolo(t *testing.T) {
	s, c, cleanup := newBatchServer(t, 200*time.Millisecond)
	defer cleanup()
	holdLimit(t, s)

	req, want := dotReq(t, 8)
	req.DeadlineMS = 100 // < 2x window: too tight to queue
	resp, err := c.RunReq(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Batched {
		t.Error("deadline-pressed request was batched")
	}
	if got := resp.LiveOuts["s"]; got != want {
		t.Errorf("s = %d, want %d", got, want)
	}
	reg := s.Metrics()
	if got := reg.Counter("cgra_run_batch_solo_total", obs.L("reason", "deadline")).Value(); got != 1 {
		t.Errorf("solo(deadline) = %d, want 1", got)
	}
	if got := reg.Counter("cgra_run_batched_total").Value(); got != 0 {
		t.Errorf("cgra_run_batched_total = %d, want 0", got)
	}
}

// TestRunBatchDrainDuringWindow: a request queued behind a held run when
// Shutdown begins must still complete — the batch outlives the drain and
// flushes when the held run ends.
func TestRunBatchDrainDuringWindow(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.BatchWindow = 5 * time.Second // the release, not the window, flushes
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	compileWorkload(t, c, "dot")
	release := holdLimit(t, s)

	req, want := dotReq(t, 8)
	type result struct {
		resp *RunResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := c.RunReq(context.Background(), req)
		done <- result{resp, err}
	}()
	waitQueued(t, s, 1)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	release()
	res := <-done
	if res.err != nil {
		t.Fatalf("request lost during drain: %v", res.err)
	}
	if !res.resp.Batched {
		t.Error("drained request not batched")
	}
	if got := res.resp.LiveOuts["s"]; got != want {
		t.Errorf("s = %d, want %d", got, want)
	}
}
