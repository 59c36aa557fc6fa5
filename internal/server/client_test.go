package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// flaky is a scripted in-process server: response i comes from steps[i],
// requests past the script succeed. It records the arrival time of every
// request so tests can assert backoff behavior.
type flaky struct {
	mu    sync.Mutex
	steps []func(w http.ResponseWriter)
	calls []time.Time
}

func (f *flaky) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		i := len(f.calls)
		f.calls = append(f.calls, time.Now())
		var step func(http.ResponseWriter)
		if i < len(f.steps) {
			step = f.steps[i]
		}
		f.mu.Unlock()
		if step != nil {
			step(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"kernels":["ok"]}`)
	}
}

func (f *flaky) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

// gap returns the arrival-time distance between request i and i+1.
func (f *flaky) gap(i int) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[i+1].Sub(f.calls[i])
}

func shedStep(status int, retryAfter time.Duration) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		writeShed(w, httptest.NewRequest(http.MethodGet, "/", nil), status, codeOverloaded, "overloaded", retryAfter)
	}
}

// errStep writes a plain error envelope (no trace context).
func errStep(status int, code, msg string) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		writeError(w, httptest.NewRequest(http.MethodGet, "/", nil), status, code, msg)
	}
}

func newFlakyClient(t *testing.T, f *flaky) *Client {
	t.Helper()
	ts := httptest.NewServer(f.handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL)
}

// TestClientRetryHonorsRetryAfter proves a 429 with a Retry-After hint is
// retried no earlier than the hint asks, then succeeds.
func TestClientRetryHonorsRetryAfter(t *testing.T) {
	f := &flaky{steps: []func(http.ResponseWriter){shedStep(http.StatusTooManyRequests, 40*time.Millisecond)}}
	c := newFlakyClient(t, f)
	names, err := c.Kernels(context.Background())
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if len(names) != 1 || names[0] != "ok" {
		t.Fatalf("kernels = %v", names)
	}
	if n := f.callCount(); n != 2 {
		t.Fatalf("%d requests, want 2 (original + one retry)", n)
	}
	if gap := f.gap(0); gap < 40*time.Millisecond {
		t.Fatalf("retried after %v, before the 40ms Retry-After", gap)
	}
	if c.RetriesUsed() != 1 {
		t.Fatalf("RetriesUsed = %d, want 1", c.RetriesUsed())
	}
}

// TestClientRetries503 proves 503 (draining, transient upstream) retries.
func TestClientRetries503(t *testing.T) {
	f := &flaky{steps: []func(http.ResponseWriter){shedStep(http.StatusServiceUnavailable, time.Millisecond)}}
	c := newFlakyClient(t, f)
	if _, err := c.Kernels(context.Background()); err != nil {
		t.Fatalf("retry did not recover from 503: %v", err)
	}
	if n := f.callCount(); n != 2 {
		t.Fatalf("%d requests, want 2", n)
	}
}

// TestClientRetryCapExhaustion proves the client-lifetime retry cap
// stops the retry loop even when attempts remain.
func TestClientRetryCapExhaustion(t *testing.T) {
	f := &flaky{}
	for i := 0; i < 32; i++ {
		f.steps = append(f.steps, shedStep(http.StatusTooManyRequests, time.Millisecond))
	}
	c := newFlakyClient(t, f)
	c.MaxAttempts = 10
	c.retryCap = 2
	_, err := c.Kernels(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusTooManyRequests {
		t.Fatalf("exhausted budget: got %v, want the last 429", err)
	}
	if n := f.callCount(); n != 3 {
		t.Fatalf("%d requests, want 3 (original + 2 budgeted retries)", n)
	}
	// The budget is client-lifetime: the next call gets no retries at all.
	if _, err := c.Kernels(context.Background()); err == nil {
		t.Fatal("post-budget call should not have retried into the success tail")
	}
	if n := f.callCount(); n != 4 {
		t.Fatalf("%d requests after post-budget call, want 4", n)
	}
}

// TestClientBackoffJitterBounds proves retry delays land in the jitter
// window [d/2, d) of the exponential schedule instead of synchronizing.
func TestClientBackoffJitterBounds(t *testing.T) {
	f := &flaky{steps: []func(http.ResponseWriter){
		// No Retry-After hint: the client falls back to its own schedule.
		errStep(http.StatusTooManyRequests, codeOverloaded, "overloaded"),
		errStep(http.StatusTooManyRequests, codeOverloaded, "overloaded"),
	}}
	c := newFlakyClient(t, f)
	if _, err := c.Kernels(context.Background()); err != nil {
		t.Fatalf("retries did not recover: %v", err)
	}
	for i := 0; i < 2; i++ {
		d := retryBackoff << i // retry i waits in [d/2, d)
		gap := f.gap(i)
		if gap < d/2 {
			t.Fatalf("retry %d fired after %v, before the %v jitter floor", i, gap, d/2)
		}
		if gap > d+150*time.Millisecond {
			t.Fatalf("retry %d fired after %v, way past the %v jitter ceiling", i, gap, d)
		}
	}
}

// TestClientDeadlineBeatsRetryAfter proves the client gives up immediately
// when the server's Retry-After would sleep past the caller's deadline.
func TestClientDeadlineBeatsRetryAfter(t *testing.T) {
	f := &flaky{steps: []func(http.ResponseWriter){shedStep(http.StatusTooManyRequests, 5*time.Second)}}
	c := newFlakyClient(t, f)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Kernels(ctx)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusTooManyRequests {
		t.Fatalf("got %v, want the 429 back (not a deadline error)", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("client slept %v toward a 5s Retry-After under a 200ms deadline", elapsed)
	}
	if n := f.callCount(); n != 1 {
		t.Fatalf("%d requests, want 1 (no retry fits the deadline)", n)
	}
}

// TestClientRetriesTransportTimeout proves a per-attempt transport timeout
// is retried (the caller's context is still alive) and recovers.
func TestClientRetriesTransportTimeout(t *testing.T) {
	f := &flaky{steps: []func(http.ResponseWriter){
		func(w http.ResponseWriter) { time.Sleep(300 * time.Millisecond); io.WriteString(w, `{}`) },
	}}
	c := newFlakyClient(t, f)
	c.HTTP = &http.Client{Timeout: 50 * time.Millisecond}
	if _, err := c.Kernels(context.Background()); err != nil {
		t.Fatalf("transport-timeout retry did not recover: %v", err)
	}
	if n := f.callCount(); n < 2 {
		t.Fatalf("%d requests, want at least 2", n)
	}
}

// TestClientDoesNotRetryFinalErrors proves 4xx misuse is returned
// immediately: only overload and transient upstream statuses retry.
func TestClientDoesNotRetryFinalErrors(t *testing.T) {
	f := &flaky{steps: []func(http.ResponseWriter){
		errStep(http.StatusNotFound, codeUnknownKernel, "unknown kernel"),
	}}
	c := newFlakyClient(t, f)
	_, err := c.Kernels(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusNotFound || apiErr.ErrCode != codeUnknownKernel {
		t.Fatalf("got %v, want immediate 404 with code %q", err, codeUnknownKernel)
	}
	if n := f.callCount(); n != 1 {
		t.Fatalf("%d requests, want 1 (404 is final)", n)
	}
}

// TestParseRetryAfterForms covers every Retry-After shape a client can
// meet: the precise millisecond header, RFC 9110 delta-seconds, an
// HTTP-date (proxies and load balancers emit these), and garbage.
func TestParseRetryAfterForms(t *testing.T) {
	mk := func(kv ...string) http.Header {
		h := http.Header{}
		for i := 0; i+1 < len(kv); i += 2 {
			h.Set(kv[i], kv[i+1])
		}
		return h
	}

	if d := parseRetryAfter(mk("Retry-After", "2")); d != 2*time.Second {
		t.Fatalf("delta-seconds: %v, want 2s", d)
	}
	if d := parseRetryAfter(mk(retryAfterMSHeader, "1500", "Retry-After", "10")); d != 1500*time.Millisecond {
		t.Fatalf("ms header should win: %v, want 1.5s", d)
	}

	// HTTP-date in the future: the hint is the remaining wait. The format
	// has one-second resolution, so accept anything in (2s, 5s].
	future := time.Now().Add(5 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(mk("Retry-After", future)); d <= 2*time.Second || d > 5*time.Second {
		t.Fatalf("future HTTP-date: %v, want (2s, 5s]", d)
	}
	// A date in the past means "retry now".
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(mk("Retry-After", past)); d != 0 {
		t.Fatalf("past HTTP-date: %v, want 0", d)
	}
	if d := parseRetryAfter(mk("Retry-After", "soon-ish")); d != 0 {
		t.Fatalf("garbage: %v, want 0", d)
	}
	if d := parseRetryAfter(mk()); d != 0 {
		t.Fatalf("absent: %v, want 0", d)
	}
}

// TestClientRetryHonorsHTTPDateRetryAfter: a 503 carrying an HTTP-date
// Retry-After delays the retry like a delta-seconds hint would.
func TestClientRetryHonorsHTTPDateRetryAfter(t *testing.T) {
	date := time.Now().Add(1500 * time.Millisecond).UTC().Format(http.TimeFormat)
	f := &flaky{steps: []func(http.ResponseWriter){func(w http.ResponseWriter) {
		w.Header().Set("Retry-After", date)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"overloaded"}`)
	}}}
	c := newFlakyClient(t, f)
	if _, err := c.Kernels(context.Background()); err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if f.callCount() != 2 {
		t.Fatalf("calls = %d, want 2", f.callCount())
	}
	// The formatted date has second resolution: at least ~0.5s must remain.
	if gap := f.gap(0); gap < 300*time.Millisecond {
		t.Fatalf("retried after %v, before the HTTP-date Retry-After", gap)
	}
}
