package server

import (
	"context"
	"net/http/httptest"
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

// TestRunBatchLingerFlush is the HTTP face of the system's coalescer (its
// flush rules are tested in internal/system, TestInvokeCtxCoalesces):
// concurrent same-artifact requests inside the linger window each get
// their own correct result marked batched with its lane count, and the
// flush-reason counters move on the daemon's registry.
func TestRunBatchLingerFlush(t *testing.T) {
	s, c, cleanup := newBatchServer(t, 60*time.Millisecond)
	defer cleanup()

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
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		if got := resps[i].LiveOuts["s"]; got != wants[i] {
			t.Errorf("lane %d: s = %d, want %d", i, got, wants[i])
		}
		if !resps[i].Batched || resps[i].BatchLanes < 1 || resps[i].BatchLanes > n {
			t.Errorf("lane %d: batched=%t batch_lanes=%d, want batched with 1..%d lanes",
				i, resps[i].Batched, resps[i].BatchLanes, n)
		}
	}
	reg := s.Metrics()
	if got := reg.Counter("cgra_run_batched_total").Value(); got < n {
		t.Errorf("cgra_run_batched_total = %d, want >= %d", got, n)
	}
	if got := reg.Counter("cgra_run_batch_flush_total", obs.L("reason", "linger")).Value(); got < 1 {
		t.Errorf("no linger flush recorded")
	}
}

// TestRunBatchDeadlineSolo: the body's deadline_ms reaches the system's
// coalescer through the request context — one that cannot absorb the
// linger window (under 2x) runs alone.
func TestRunBatchDeadlineSolo(t *testing.T) {
	s, c, cleanup := newBatchServer(t, 200*time.Millisecond)
	defer cleanup()

	req, want := dotReq(t, 8)
	req.DeadlineMS = 100 // < 2x window: too tight to linger
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

// TestRunBatchDeadlineRush: a deadline_ms that can start a batch but not
// wait out the linger joins and flushes immediately (reason "deadline").
func TestRunBatchDeadlineRush(t *testing.T) {
	s, c, cleanup := newBatchServer(t, 200*time.Millisecond)
	defer cleanup()

	req, want := dotReq(t, 8)
	req.DeadlineMS = 900 // in [2x, 8x) window: join, then rush the flush
	start := time.Now()
	resp, err := c.RunReq(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Errorf("rushed request still lingered: %v", elapsed)
	}
	if !resp.Batched || resp.BatchLanes != 1 {
		t.Errorf("batched=%t lanes=%d, want batched solo lane", resp.Batched, resp.BatchLanes)
	}
	if got := resp.LiveOuts["s"]; got != want {
		t.Errorf("s = %d, want %d", got, want)
	}
	reg := s.Metrics()
	if got := reg.Counter("cgra_run_batch_flush_total", obs.L("reason", "deadline")).Value(); got != 1 {
		t.Errorf("deadline flushes = %d, want 1", got)
	}
}

// TestRunBatchDrainDuringWindow: a request lingering in an open batch when
// Shutdown begins must still complete — the linger timer keeps running
// during the drain and the flush executes before the system is torn down.
func TestRunBatchDrainDuringWindow(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.BatchWindow = 300 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	compileWorkload(t, c, "dot")

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
	// Let the request join the open batch, then start draining while it
	// is still waiting out the linger window.
	time.Sleep(75 * time.Millisecond)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
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
