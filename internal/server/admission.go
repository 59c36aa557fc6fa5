// Deadline-aware admission and brownout: the server's overload plane.
//
// Admission used to be a bare semaphore: requests beyond MaxInFlight were
// shed with 429 regardless of whether they could ever have been served in
// time. This file upgrades it in two ways:
//
//   - Deadline-aware shedding. The server keeps an EWMA of per-endpoint
//     service time. A request that announces its deadline (X-Deadline-Ms
//     header, set automatically by Client) is rejected immediately — before
//     it consumes an admission slot — when the expected latency at the
//     current queue depth already exceeds that deadline. The 429 carries a
//     Retry-After hint so a well-behaved client backs off by the right
//     amount instead of guessing.
//
//   - Brownout. Under sustained overload (a burst of sheds inside a short
//     window) or with the cache disk failed over to memory-only degraded
//     mode, /v1/run overflow is served by the host interpreter — no
//     accelerator, no admission slot, results marked "degraded": true —
//     rather than shed. Availability degrades gracefully instead of
//     cliff-dropping to 429s.
package server

import (
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Machine-readable error codes carried in the JSON error body ("code") so
// clients and operators can branch on failure kind without parsing prose.
const (
	codeBadRequest         = "bad_request"
	codeBadMethod          = "method_not_allowed"
	codeConflict           = "conflict"
	codeUnknownKernel      = "unknown_kernel"
	codeDeadline           = "deadline_exceeded"
	codeCompileFailed      = "compile_failed"
	codeRunFailed          = "run_failed"
	codeDraining           = "draining"
	codeOverloaded         = "overloaded"
	codeDeadlineUnmeetable = "deadline_unmeetable"
)

// deadlineHeader is how a request announces its end-to-end deadline to
// admission control, which must decide before reading the body.
const deadlineHeader = "X-Deadline-Ms"

// retryAfterMSHeader carries the precise (millisecond) retry hint next to
// the standard integer-second Retry-After header.
const retryAfterMSHeader = "X-Retry-After-Ms"

// traceIDHeader carries the 32-hex-digit trace ID: inbound it lets a
// caller (or an upstream hop) name the trace; outbound the server echoes
// the ID it recorded under, so every response is joinable against
// /debug/traces/{id}.
const traceIDHeader = "X-Trace-Id"

// ewmaAlpha weights the newest service-time sample; 0.3 tracks load shifts
// within a few requests without letting one cold compile dominate.
const ewmaAlpha = 0.3

// svcEstimator keeps an exponentially weighted moving average of service
// time per endpoint.
type svcEstimator struct {
	mu   sync.Mutex
	ewma map[string]time.Duration
}

func newSvcEstimator() *svcEstimator {
	return &svcEstimator{ewma: map[string]time.Duration{}}
}

func (e *svcEstimator) observe(endpoint string, d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur, ok := e.ewma[endpoint]
	if !ok {
		e.ewma[endpoint] = d
		return
	}
	e.ewma[endpoint] = cur + time.Duration(ewmaAlpha*float64(d-cur))
}

func (e *svcEstimator) estimate(endpoint string) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ewma[endpoint]
}

// expectedLatency scales the endpoint's EWMA by the admission queue depth:
// a full server is expected to take (1 + inflight/max) service times.
// Zero means "no data yet" — such requests are always admitted.
func (s *Server) expectedLatency(endpoint string) time.Duration {
	est := s.est.estimate(endpoint)
	if est <= 0 {
		return 0
	}
	load := float64(len(s.sem)) / float64(cap(s.sem))
	return est + time.Duration(load*float64(est))
}

// retryHint is the Retry-After for an overload shed: one expected service
// time, clamped to something a client can act on.
func (s *Server) retryHint(endpoint string) time.Duration {
	est := s.est.estimate(endpoint)
	switch {
	case est <= 0:
		return 50 * time.Millisecond
	case est < 10*time.Millisecond:
		return 10 * time.Millisecond
	case est > 5*time.Second:
		return 5 * time.Second
	}
	return est
}

// clientDeadline reads the announced request deadline; 0 = none announced.
func clientDeadline(r *http.Request) time.Duration {
	v := r.Header.Get(deadlineHeader)
	if v == "" {
		return 0
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// brownout tracks shed bursts: threshold sheds inside window arm brownout
// mode for hold.
type brownout struct {
	mu        sync.Mutex
	window    time.Duration
	threshold int
	hold      time.Duration
	sheds     []time.Time
	until     time.Time
}

func (b *brownout) noteShed(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	keep := b.sheds[:0]
	for _, t := range b.sheds {
		if now.Sub(t) <= b.window {
			keep = append(keep, t)
		}
	}
	b.sheds = append(keep, now)
	if len(b.sheds) >= b.threshold {
		b.until = now.Add(b.hold)
	}
}

func (b *brownout) overloaded(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return now.Before(b.until)
}

// BrownoutActive reports whether /v1/run overflow is currently served by
// the host-interpreter fallback: armed by a shed burst (sustained
// overload) or by the cache disk being failed over to degraded mode.
func (s *Server) BrownoutActive() bool {
	active := s.bo.overloaded(time.Now()) || s.store.Degraded()
	if active {
		s.brownoutG.Set(1)
	} else {
		s.brownoutG.Set(0)
	}
	return active
}

// writeShed writes a shed/backpressure error (429/503) with retry hints:
// the standard integer-second Retry-After, a precise X-Retry-After-Ms, and
// retry_after_ms in the JSON body.
func writeShed(w http.ResponseWriter, r *http.Request, status int, code, msg string, retryAfter time.Duration) int {
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		w.Header().Set(retryAfterMSHeader, strconv.FormatInt(retryAfter.Milliseconds(), 10))
	}
	return writeJSON(w, status, errorResponse{
		Error:        msg,
		Code:         code,
		RetryAfterMS: retryAfter.Milliseconds(),
		TraceID:      traceIDOf(r),
	})
}
