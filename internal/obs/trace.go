// Request tracing: a 128-bit trace identity plus a span tree, carried
// through context.Context so one request produces a single coherent tree
// across layers — server admission, system dispatch, cache lookups, the
// compile pipeline's phases, and engine execution. Instrumented code asks
// the context for the active span (ContextSpan / StartSpanCtx); outside a
// traced request the active span is nil and every span method is a no-op,
// so tracing costs nothing when unused.
package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit request identity, rendered as 32 lowercase hex
// digits. It is carried across nodes in the X-Trace-Id header, so traces
// of one logical request compose across a fleet.
type TraceID [16]byte

// String renders the ID as 32 hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports the all-zero (absent) ID.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// fallbackSeq desynchronizes fallback IDs if crypto/rand ever fails.
var fallbackSeq atomic.Uint64

// NewTraceID draws a fresh random 128-bit ID.
func NewTraceID() TraceID {
	var id TraceID
	if _, err := crand.Read(id[:]); err != nil {
		// crypto/rand does not fail on supported platforms; keep a
		// deterministic-but-unique fallback anyway.
		binary.BigEndian.PutUint64(id[:8], uint64(time.Now().UnixNano()))
		binary.BigEndian.PutUint64(id[8:], fallbackSeq.Add(1))
	}
	return id
}

// ParseTraceID parses a 32-hex-digit trace ID.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 2*len(id) {
		return id, fmt.Errorf("obs: trace ID %q: want %d hex digits", s, 2*len(id))
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("obs: trace ID %q: %v", s, err)
	}
	return id, nil
}

// Trace is one end-to-end request: an identity plus the root of its span
// tree. The root span's clock is the request wall time; everything the
// request touches hangs below it. Safe for concurrent use.
type Trace struct {
	ID TraceID
	// Endpoint names the request class ("run", "compile", ...): the key the
	// flight recorder's slowest-trace reservoirs are bucketed by.
	Endpoint string
	Root     *Span

	// hex is ID rendered once, for the header, the exemplar and the body.
	hex string

	mu     sync.Mutex
	status int
	done   bool
}

// NewTrace opens a trace: the root span starts immediately.
func NewTrace(id TraceID, endpoint, rootName string) *Trace {
	return &Trace{ID: id, Endpoint: endpoint, Root: StartSpan(rootName), hex: id.String()}
}

// IDString returns the trace's ID as 32 hex digits.
func (t *Trace) IDString() string { return t.hex }

// Finish closes the trace with a status code (an HTTP status for server
// traces). Finishing twice keeps the first status.
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	t.Root.Finish()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.done {
		t.done = true
		t.status = status
	}
}

// Done reports whether the trace has finished.
func (t *Trace) Done() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// Status returns the finish status (0 while in flight).
func (t *Trace) Status() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// Start returns the trace's start time.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.Root.Start()
}

// Duration returns the trace's wall time (time since start while in
// flight).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	return t.Root.Duration()
}

type traceCtxKey struct{}
type spanCtxKey struct{}

// WithTrace attaches a trace to the context and makes its root the active
// span.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	ctx = context.WithValue(ctx, traceCtxKey{}, t)
	return context.WithValue(ctx, spanCtxKey{}, t.Root)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// ContextSpan returns the context's active span, or nil outside a traced
// request. The nil span is a valid no-op receiver for every Span method,
// so callers never need to branch.
func ContextSpan(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// StartSpanCtx opens a child of the context's active span and returns a
// derived context with the child active. Outside a traced request it
// returns (ctx, nil) without allocating; the nil child absorbs every
// operation, Finish included.
func StartSpanCtx(ctx context.Context, name string) (context.Context, *Span) {
	parent := ContextSpan(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.StartChild(name)
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// EventCtx records a point event on the context's active span (no-op
// outside a traced request).
func EventCtx(ctx context.Context, name, note string) {
	ContextSpan(ctx).Event(name, note)
}
