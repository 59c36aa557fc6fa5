package obs

import (
	"sync"
	"time"
)

// SpanMetric is one size/count annotation on a span (e.g. nodes: 172).
type SpanMetric struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// SpanAttr is one string annotation on a span (cache source, engine path).
type SpanAttr struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// SpanEvent is one timestamped point annotation on a span: a retry, a
// breaker trip, a brownout serve, a chaos injection.
type SpanEvent struct {
	Name string    `json:"name"`
	At   time.Time `json:"at"`
	Note string    `json:"note,omitempty"`
}

// Span is one timed phase of a larger operation. Spans form a tree: the
// compile pipeline opens a root span and each phase (unroll, CSE, CDFG
// build, schedule, route, alloc, ctxgen) becomes a child. A span carries
// wall time plus integer metrics describing the phase's output sizes.
//
// Spans are safe for concurrent use, although phases of one compilation
// normally run sequentially. Every method is safe on a nil *Span (no-op /
// zero result), so instrumented code can thread an optional span without
// branching: a nil root simply produces nil children.
type Span struct {
	Name string

	mu       sync.Mutex
	start    time.Time
	dur      time.Duration
	done     bool
	metrics  []SpanMetric
	attrs    []SpanAttr
	events   []SpanEvent
	children []*Span
}

// StartSpan opens a root span.
func StartSpan(name string) *Span {
	return &Span{Name: name, start: time.Now()}
}

// StartChild opens a child span under s (nil on a nil receiver).
func (s *Span) StartChild(name string) *Span { return s.StartChildAt(name, time.Now()) }

// StartChildAt opens a child span under s whose clock started at t: a
// phase that was already running when its span could be opened.
func (s *Span) StartChildAt(name string, t time.Time) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, start: t}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Finish stops the clock. Finishing twice keeps the first duration.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done {
		s.dur = time.Since(s.start)
		s.done = true
	}
}

// Start returns the span's start time (zero on a nil receiver).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	// start is written once at construction and never mutated; no lock.
	return s.start
}

// Done reports whether the span has finished.
func (s *Span) Done() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// Duration returns the span's wall time (time since start while running).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done {
		return time.Since(s.start)
	}
	return s.dur
}

// Set records (or overwrites) an integer metric on the span.
func (s *Span) Set(name string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.metrics {
		if s.metrics[i].Name == name {
			s.metrics[i].Value = v
			return
		}
	}
	s.metrics = append(s.metrics, SpanMetric{Name: name, Value: v})
}

// Annotate records (or overwrites) a string attribute on the span.
func (s *Span) Annotate(name, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Name == name {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, SpanAttr{Name: name, Value: value})
}

// Attrs returns a copy of the span's string attributes, in insertion order.
func (s *Span) Attrs() []SpanAttr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SpanAttr(nil), s.attrs...)
}

// Event appends a timestamped point event to the span (note may be empty).
func (s *Span) Event(name, note string) {
	if s == nil {
		return
	}
	ev := SpanEvent{Name: name, At: time.Now(), Note: note}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Events returns a copy of the span's events, in insertion order.
func (s *Span) Events() []SpanEvent {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SpanEvent(nil), s.events...)
}

// Metrics returns a copy of the span's metrics, in insertion order.
func (s *Span) Metrics() []SpanMetric {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SpanMetric(nil), s.metrics...)
}

// Children returns a copy of the child list, in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Walk visits the span and every descendant depth-first. The path is the
// slash-joined chain of names from (and including) the root.
func (s *Span) Walk(fn func(path string, sp *Span)) {
	if s == nil {
		return
	}
	s.walk(s.Name, fn)
}

func (s *Span) walk(path string, fn func(string, *Span)) {
	fn(path, s)
	for _, c := range s.Children() {
		c.walk(path+"/"+c.Name, fn)
	}
}

// Export writes the span tree into a registry: for every span a
// `<prefix>_phase_seconds{phase="<path>"}` gauge, and for every span
// metric a `<prefix>_phase_metric{phase="<path>",metric="<name>"}` gauge.
// The path omits the root span's name (the root exports as phase "total").
func (s *Span) Export(reg *Registry, prefix string) {
	if s == nil || reg == nil {
		return
	}
	secs := prefix + "_phase_seconds"
	sizes := prefix + "_phase_metric"
	reg.Help(secs, "wall time of one pipeline phase, in seconds")
	s.Walk(func(path string, sp *Span) {
		phase := "total"
		if path != s.Name {
			phase = path[len(s.Name)+1:]
		}
		reg.Gauge(secs, L("phase", phase)).Set(sp.Duration().Seconds())
		for _, m := range sp.Metrics() {
			reg.Gauge(sizes, L("phase", phase), L("metric", m.Name)).SetInt(m.Value)
		}
	})
}
