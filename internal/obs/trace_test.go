package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("fresh trace ID is zero")
	}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("String() = %q, want 32 hex digits", s)
	}
	back, err := ParseTraceID(s)
	if err != nil {
		t.Fatalf("ParseTraceID(%q): %v", s, err)
	}
	if back != id {
		t.Fatalf("round trip: %v != %v", back, id)
	}
}

func TestParseTraceIDRejectsBadInput(t *testing.T) {
	for _, bad := range []string{"", "abc", strings.Repeat("a", 31), strings.Repeat("a", 33), strings.Repeat("z", 32)} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
	zero, err := ParseTraceID(strings.Repeat("0", 32))
	if err != nil {
		t.Fatalf("all-zero ID should parse: %v", err)
	}
	if !zero.IsZero() {
		t.Fatal("parsed all-zero ID is not IsZero")
	}
}

func TestNewTraceIDsDistinct(t *testing.T) {
	seen := map[TraceID]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %s after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != nil {
		t.Fatal("TraceFrom on bare context is non-nil")
	}
	if ContextSpan(ctx) != nil {
		t.Fatal("ContextSpan on bare context is non-nil")
	}
	// Outside a trace, StartSpanCtx must not allocate a span or derive a
	// new context.
	ctx2, sp := StartSpanCtx(ctx, "phase")
	if sp != nil || ctx2 != ctx {
		t.Fatal("StartSpanCtx outside a trace should return (ctx, nil)")
	}
	EventCtx(ctx, "noop", "") // must not panic

	tr := NewTrace(NewTraceID(), "run", "server.run")
	ctx = WithTrace(ctx, tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom lost the trace")
	}
	if ContextSpan(ctx) != tr.Root {
		t.Fatal("root span is not the active span")
	}
	ctx3, child := StartSpanCtx(ctx, "phase")
	if child == nil {
		t.Fatal("StartSpanCtx inside a trace returned nil")
	}
	if ContextSpan(ctx3) != child {
		t.Fatal("child is not active in the derived context")
	}
	if ContextSpan(ctx) != tr.Root {
		t.Fatal("parent context's active span changed")
	}
	EventCtx(ctx3, "tick", "note")
	evs := child.Events()
	if len(evs) != 1 || evs[0].Name != "tick" || evs[0].Note != "note" {
		t.Fatalf("events = %+v, want one tick", evs)
	}
}

func TestTraceFinishIdempotent(t *testing.T) {
	tr := NewTrace(NewTraceID(), "run", "server.run")
	if tr.Done() {
		t.Fatal("fresh trace reports done")
	}
	tr.Finish(200)
	tr.Finish(500)
	if !tr.Done() {
		t.Fatal("finished trace not done")
	}
	if got := tr.Status(); got != 200 {
		t.Fatalf("status = %d, want first-writer 200", got)
	}
	d := tr.Duration()
	if d2 := tr.Duration(); d2 != d {
		t.Fatalf("finished duration moved: %v then %v", d, d2)
	}
}

// TestSpanConcurrentHammer drives every Span mutator and reader from many
// goroutines at once; run under -race it proves the span tree is safe to
// share across the layers a request traverses.
func TestSpanConcurrentHammer(t *testing.T) {
	tr := NewTrace(NewTraceID(), "run", "root")
	root := tr.Root
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c := root.StartChild(fmt.Sprintf("w%d.%d", w, i))
				c.Set("iter", int64(i))
				c.Set("iter", int64(i+1)) // overwrite path
				c.Annotate("worker", fmt.Sprintf("w%d", w))
				c.Event("tick", "")
				g := c.StartChild("inner")
				g.Finish()
				c.Finish()
			}
		}(w)
	}
	// Concurrent readers: walkers and exporters race the writers above.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := 0
				root.Walk(func(string, *Span) { n++ })
				_ = root.Duration()
				_ = tr.Export()
			}
		}()
	}
	wg.Wait()
	tr.Finish(200)
	if got := len(root.Children()); got != workers*iters {
		t.Fatalf("children = %d, want %d", got, workers*iters)
	}
	var leaves int
	root.Walk(func(path string, sp *Span) {
		if strings.HasSuffix(path, "/inner") {
			leaves++
		}
	})
	if leaves != workers*iters {
		t.Fatalf("inner spans = %d, want %d", leaves, workers*iters)
	}
}

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	if c := s.StartChild("x"); c != nil {
		t.Fatal("nil StartChild returned a span")
	}
	s.Finish()
	s.Set("n", 1)
	s.Annotate("a", "b")
	s.Event("e", "")
	if s.Duration() != 0 || s.Done() || s.Metrics() != nil || s.Attrs() != nil || s.Events() != nil || s.Children() != nil {
		t.Fatal("nil span leaked state")
	}
}
