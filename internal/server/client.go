package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"cgra/internal/obs"
)

// The retry policy. A call tries up to defaultMaxAttempts times unless
// MaxAttempts says otherwise. The delay before retry i is
// retryBackoff·2^i, capped at retryBackoffMax and jittered into [d/2, d).
// A client spends at most defaultRetryCap retries (not first attempts)
// over its lifetime, so a dying daemon cannot trap a whole fleet of
// callers in retry loops.
const (
	defaultMaxAttempts = 4
	defaultRetryCap    = 64
	retryBackoff       = 25 * time.Millisecond
	retryBackoffMax    = time.Second
)

// Client talks to a cgrad daemon. It retries transient failures — 429,
// 502/503, and transport errors — with exponential backoff and jitter,
// honoring the server's Retry-After hints (delta-seconds, HTTP-date, or the
// precise X-Retry-After-Ms), bounded by a per-client retry budget, and
// never past the caller's context deadline. The zero retry configuration
// is production-safe; set MaxAttempts to 1 for single-shot semantics.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the transport (nil = http.DefaultClient).
	HTTP *http.Client
	// MaxAttempts bounds tries per call: 0 = 4, 1 = no retries.
	MaxAttempts int

	// retryCap is the lifetime retry cap (0 = defaultRetryCap);
	// only tests lower it.
	retryCap    int64
	retriesUsed atomic.Int64
}

// NewClient returns a client for the daemon at base.
func NewClient(base string) *Client { return &Client{Base: base} }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// RetriesUsed reports how much of the retry budget this client has spent.
func (c *Client) RetriesUsed() int64 { return c.retriesUsed.Load() }

// Compile submits kernel source; deadline 0 uses the server default.
func (c *Client) Compile(ctx context.Context, source string, deadline time.Duration) (*CompileResponse, error) {
	req := CompileRequest{Source: source, DeadlineMS: deadline.Milliseconds()}
	var resp CompileResponse
	if err := c.post(ctx, "/v1/compile", req.DeadlineMS, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Run invokes a compiled (or at least registered) kernel.
func (c *Client) Run(ctx context.Context, kernel string, args map[string]int32, arrays map[string][]int32) (*RunResponse, error) {
	return c.RunReq(ctx, RunRequest{Kernel: kernel, Args: args, Arrays: arrays})
}

// RunReq invokes a kernel with full control over the request body (per-run
// deadline).
func (c *Client) RunReq(ctx context.Context, req RunRequest) (*RunResponse, error) {
	var resp RunResponse
	payload, _ := req.MarshalJSON() // the run-body encoder has no failure
	if err := c.do(ctx, http.MethodPost, "/v1/run", req.DeadlineMS, payload, resp.UnmarshalJSON); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Kernels lists the daemon's registered kernels.
func (c *Client) Kernels(ctx context.Context) ([]string, error) {
	var resp KernelsResponse
	if err := c.get(ctx, "/v1/kernels", &resp); err != nil {
		return nil, err
	}
	return resp.Kernels, nil
}

// Health reports nil when the daemon process is alive (liveness; a
// draining daemon is still alive). Use Ready for routability.
func (c *Client) Health(ctx context.Context) error {
	return c.get(ctx, "/healthz", &struct {
		Status string `json:"status"`
	}{})
}

// Ready fetches the daemon's readiness report. Single-shot (a status
// probe must not retry itself ready); when the daemon answers 503 the
// report is still returned alongside the *APIError so callers can see why.
func (c *Client) Ready(ctx context.Context) (*ReadyResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/readyz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var rr ReadyResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return &rr, &APIError{Code: resp.StatusCode, ErrCode: "not_ready", Message: "daemon not ready"}
	}
	return &rr, nil
}

// APIError is a non-2xx response from the daemon.
type APIError struct {
	// Code is the HTTP status.
	Code int
	// ErrCode is the machine-readable error token from the JSON body
	// ("overloaded", "draining", "deadline_unmeetable", ...).
	ErrCode string
	Message string
	// RetryAfter is the server's backoff hint, when it sent one.
	RetryAfter time.Duration
	// TraceID names the failed request's server-side trace; paste it into
	// /debug/traces/{id} to see where the time (or the failure) went.
	TraceID string
}

func (e *APIError) Error() string {
	if e.TraceID != "" {
		return fmt.Sprintf("cgrad: HTTP %d: %s (trace %s)", e.Code, e.Message, e.TraceID)
	}
	return fmt.Sprintf("cgrad: HTTP %d: %s", e.Code, e.Message)
}

func (c *Client) post(ctx context.Context, path string, deadlineMS int64, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, path, deadlineMS, payload, jsonInto(out))
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, 0, nil, jsonInto(out))
}

// jsonInto decodes a success body into out with encoding/json.
func jsonInto(out any) func([]byte) error {
	return func(data []byte) error { return json.Unmarshal(data, out) }
}

// do runs one request through the retry loop. The request is rebuilt from
// payload on every attempt (a consumed body cannot be replayed), and each
// attempt re-announces the remaining deadline so the server's admission
// control sheds honestly. decode reads a success body; the bytes it is
// given are reused once it returns.
func (c *Client) do(ctx context.Context, method, path string, deadlineMS int64, payload []byte, decode func([]byte) error) error {
	maxAttempts := c.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = defaultMaxAttempts
	}
	// One trace identity per logical call, shared by every retry attempt:
	// if the caller is itself inside a traced request, propagate its ID so
	// the hops compose; otherwise mint a fresh one so even a cold client
	// call is findable in the daemon's flight recorder.
	traceID := callTraceID(ctx)
	var lastErr error
	for attempt := 0; ; attempt++ {
		var retryAfter time.Duration
		done, err := c.attempt(ctx, method, path, deadlineMS, traceID, payload, decode, &retryAfter)
		if done {
			return err
		}
		lastErr = err
		if attempt+1 >= maxAttempts || !c.spendRetry() {
			return lastErr
		}
		delay := backoffDelay(attempt)
		if retryAfter > delay {
			delay = retryAfter
		}
		// Deadline-aware give-up: if the planned sleep outlives the
		// caller's deadline, retrying is theater — return the last error
		// while there is still time to act on it.
		if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) <= delay {
			return lastErr
		}
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return lastErr
		case <-t.C:
		}
	}
}

// attempt runs a single HTTP exchange. done=true means the result is
// final (success or non-retryable failure); done=false means err is
// transient and the retry loop decides what happens next.
func (c *Client) attempt(ctx context.Context, method, path string, deadlineMS int64, traceID string, payload []byte, decode func([]byte) error, retryAfter *time.Duration) (done bool, err error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return true, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceID != "" {
		req.Header.Set(traceIDHeader, traceID)
	}
	if ms := announcedDeadlineMS(ctx, deadlineMS); ms > 0 {
		req.Header.Set(deadlineHeader, strconv.FormatInt(ms, 10))
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		// Transport errors retry unless the caller's own context ended
		// (per-attempt transport timeouts keep retrying; the caller's
		// deadline does not).
		return ctx.Err() != nil, err
	}
	defer resp.Body.Close()
	// The body is read into a pooled buffer: decode and the error path
	// below copy out what they keep.
	rc := getCodec()
	defer rc.release()
	data, err := rc.readAll(resp.Body)
	if err != nil {
		return ctx.Err() != nil, err
	}
	if resp.StatusCode/100 == 2 {
		return true, decode(data)
	}
	apiErr := &APIError{Code: resp.StatusCode, Message: string(data), TraceID: resp.Header.Get(traceIDHeader)}
	var e errorResponse
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		apiErr.Message = e.Error
		apiErr.ErrCode = e.Code
		apiErr.RetryAfter = time.Duration(e.RetryAfterMS) * time.Millisecond
		if e.TraceID != "" {
			apiErr.TraceID = e.TraceID
		}
	}
	if d := parseRetryAfter(resp.Header); d > apiErr.RetryAfter {
		apiErr.RetryAfter = d
	}
	*retryAfter = apiErr.RetryAfter
	return !retryableStatus(resp.StatusCode), apiErr
}

// retryableStatus: overload and transient upstream failure. Everything
// else (4xx misuse, 422 compile/run failures, 504 deadline) is final.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// spendRetry takes one unit of the client-lifetime retry cap.
func (c *Client) spendRetry() bool {
	budget := c.retryCap
	if budget == 0 {
		budget = defaultRetryCap
	}
	return c.retriesUsed.Add(1) <= budget
}

// backoffDelay is the exponential schedule with jitter: retryBackoff·2^attempt
// capped at retryBackoffMax, then jittered into [d/2, d) so synchronized
// clients don't re-stampede the daemon on the same tick.
func backoffDelay(attempt int) time.Duration {
	d := retryBackoff
	for i := 0; i < attempt && d < retryBackoffMax; i++ {
		d *= 2
	}
	d = min(d, retryBackoffMax)
	return d/2 + time.Duration(rand.Int63n(int64(d/2)))
}

// callTraceID picks the X-Trace-Id for one logical client call: the
// enclosing traced request's ID when the caller is instrumented, else a
// freshly minted one. Shared across retries, so the server records every
// attempt of one call under the same identity.
func callTraceID(ctx context.Context) string {
	if t := obs.TraceFrom(ctx); t != nil {
		return t.IDString()
	}
	return obs.NewTraceID().String()
}

// announcedDeadlineMS picks what to tell admission control: the explicit
// request deadline if one was set, else the remaining context deadline.
func announcedDeadlineMS(ctx context.Context, deadlineMS int64) int64 {
	if deadlineMS > 0 {
		return deadlineMS
	}
	if deadline, ok := ctx.Deadline(); ok {
		if ms := time.Until(deadline).Milliseconds(); ms > 0 {
			return ms
		}
		return 1
	}
	return 0
}

// parseRetryAfter reads the precise millisecond hint, falling back to the
// standard Retry-After header in either of its RFC 9110 forms:
// delta-seconds or an HTTP-date (common from proxies and load balancers,
// which cgrad increasingly sits behind). A date in the past means "retry
// now" and reports zero.
func parseRetryAfter(h http.Header) time.Duration {
	if v := h.Get(retryAfterMSHeader); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			return time.Duration(ms) * time.Millisecond
		}
	}
	if v := h.Get("Retry-After"); v != "" {
		if secs, err := strconv.ParseInt(v, 10, 64); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
		if t, err := http.ParseTime(v); err == nil {
			if d := time.Until(t); d > 0 {
				return d
			}
		}
	}
	return 0
}
