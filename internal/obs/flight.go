// The flight recorder: an always-on, bounded, in-memory store of recent
// and notable traces, so "which request was slow and where did the time
// go" can be answered after the fact without any external collector.
//
// Three compartments, all bounded:
//
//   - a ring buffer of the last N completed traces (wrapping drops the
//     oldest),
//   - one reservoir per endpoint holding the K slowest completed traces
//     seen so far (a fast request never evicts a slower one),
//   - the set of currently in-flight traces (removed on completion), so a
//     hung request is inspectable while it hangs.
//
// The recorder serves itself over HTTP as /debug/traces (list) and
// /debug/traces/{id} (one trace), each as structured JSON or — with
// ?format=chrome — as Chrome trace_event JSON loadable in chrome://tracing
// and Perfetto.
package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"path"
	"sort"
	"sync"
	"time"
)

// A flight recorder keeps the last flightRing completed traces and the
// flightSlowest slowest per endpoint.
const (
	flightRing    = 256
	flightSlowest = 8
)

// FlightRecorder holds recent and slowest traces in bounded memory. Safe
// for concurrent use.
type FlightRecorder struct {
	mu       sync.Mutex
	ring     []*Trace // capacity ringSize; filled circularly
	next     int      // ring slot the next completion lands in
	total    uint64   // completions ever recorded
	inflight map[TraceID]*Trace
	slowest  map[string][]*Trace // per endpoint, sorted slowest-first, ≤ slowK
	ringSize int
	slowK    int
}

// NewFlightRecorder builds a recorder keeping the last 256 completed
// traces and the 8 slowest traces per endpoint.
func NewFlightRecorder() *FlightRecorder { return newFlightRecorder(flightRing, flightSlowest) }

// newFlightRecorder is NewFlightRecorder with the bounds given; tests
// shrink them.
func newFlightRecorder(ringSize, slowestPerEndpoint int) *FlightRecorder {
	return &FlightRecorder{
		ring:     make([]*Trace, 0, ringSize),
		inflight: map[TraceID]*Trace{},
		slowest:  map[string][]*Trace{},
		ringSize: ringSize,
		slowK:    slowestPerEndpoint,
	}
}

// Begin registers an in-flight trace so it is inspectable before it
// completes.
func (fr *FlightRecorder) Begin(t *Trace) {
	if fr == nil || t == nil {
		return
	}
	fr.mu.Lock()
	fr.inflight[t.ID] = t
	fr.mu.Unlock()
}

// End finishes the trace with the given status and commits it to the ring
// and the endpoint's slowest reservoir.
func (fr *FlightRecorder) End(t *Trace, status int) {
	if fr == nil || t == nil {
		return
	}
	t.Finish(status)
	fr.mu.Lock()
	defer fr.mu.Unlock()
	delete(fr.inflight, t.ID)
	if len(fr.ring) < fr.ringSize {
		fr.ring = append(fr.ring, t)
	} else {
		fr.ring[fr.next] = t
	}
	fr.next = (fr.next + 1) % fr.ringSize
	fr.total++
	fr.admitSlowestLocked(t)
}

// admitSlowestLocked inserts t into its endpoint's reservoir, keeping it
// sorted slowest-first and bounded: the fastest resident is evicted, and a
// candidate faster than every resident of a full reservoir is rejected.
func (fr *FlightRecorder) admitSlowestLocked(t *Trace) {
	res := fr.slowest[t.Endpoint]
	d := t.Duration()
	i := sort.Search(len(res), func(i int) bool { return res[i].Duration() < d })
	if i >= fr.slowK {
		return
	}
	res = append(res, nil)
	copy(res[i+1:], res[i:])
	res[i] = t
	if len(res) > fr.slowK {
		res = res[:fr.slowK]
	}
	fr.slowest[t.Endpoint] = res
}

// Total reports how many traces have completed through the recorder
// (including ones the ring has since dropped).
func (fr *FlightRecorder) Total() uint64 {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.total
}

// Get returns the trace with the given hex ID: in-flight traces first,
// then the ring, then the slowest reservoirs. Nil when unknown (possibly
// dropped by ring wrap).
func (fr *FlightRecorder) Get(id string) *Trace {
	tid, err := ParseTraceID(id)
	if err != nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if t := fr.inflight[tid]; t != nil {
		return t
	}
	for _, t := range fr.ring {
		if t.ID == tid {
			return t
		}
	}
	for _, res := range fr.slowest {
		for _, t := range res {
			if t.ID == tid {
				return t
			}
		}
	}
	return nil
}

// Completed returns the ring's traces, oldest first.
func (fr *FlightRecorder) Completed() []*Trace {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]*Trace, 0, len(fr.ring))
	if len(fr.ring) < fr.ringSize {
		return append(out, fr.ring...)
	}
	out = append(out, fr.ring[fr.next:]...)
	return append(out, fr.ring[:fr.next]...)
}

// Slowest returns the endpoint's slowest-trace reservoir, slowest first.
func (fr *FlightRecorder) Slowest(endpoint string) []*Trace {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return append([]*Trace(nil), fr.slowest[endpoint]...)
}

// InFlight returns the currently open traces, oldest first.
func (fr *FlightRecorder) InFlight() []*Trace {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]*Trace, 0, len(fr.inflight))
	for _, t := range fr.inflight {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start().Before(out[j].Start()) })
	return out
}

// --- structured JSON export ----------------------------------------------

// SpanExport is one span of an exported trace. Times are relative to the
// trace start so a tree reads as a timeline.
type SpanExport struct {
	Name       string        `json:"name"`
	StartUS    int64         `json:"start_us"`
	DurationMS float64       `json:"duration_ms"`
	Complete   bool          `json:"complete"`
	Metrics    []SpanMetric  `json:"metrics,omitempty"`
	Attrs      []SpanAttr    `json:"attrs,omitempty"`
	Events     []EventExport `json:"events,omitempty"`
	Children   []*SpanExport `json:"children,omitempty"`
}

// EventExport is one span event of an exported trace.
type EventExport struct {
	Name string `json:"name"`
	AtUS int64  `json:"at_us"`
	Note string `json:"note,omitempty"`
}

// TraceExport is one exported trace. Complete is false for a trace
// exported while still in flight; its durations are "so far".
type TraceExport struct {
	ID         string      `json:"id"`
	Endpoint   string      `json:"endpoint"`
	Status     int         `json:"status,omitempty"`
	Complete   bool        `json:"complete"`
	Start      time.Time   `json:"start"`
	DurationMS float64     `json:"duration_ms"`
	Root       *SpanExport `json:"root"`
}

// Export snapshots the trace (in-flight included) as a self-contained
// JSON-ready tree.
func (t *Trace) Export() *TraceExport {
	if t == nil {
		return nil
	}
	base := t.Start()
	return &TraceExport{
		ID:         t.IDString(),
		Endpoint:   t.Endpoint,
		Status:     t.Status(),
		Complete:   t.Done(),
		Start:      base,
		DurationMS: ms(t.Duration()),
		Root:       exportSpan(t.Root, base),
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func exportSpan(s *Span, base time.Time) *SpanExport {
	if s == nil {
		return nil
	}
	out := &SpanExport{
		Name:       s.Name,
		StartUS:    s.Start().Sub(base).Microseconds(),
		DurationMS: ms(s.Duration()),
		Complete:   s.Done(),
		Metrics:    s.Metrics(),
		Attrs:      s.Attrs(),
	}
	for _, ev := range s.Events() {
		out.Events = append(out.Events, EventExport{
			Name: ev.Name,
			AtUS: ev.At.Sub(base).Microseconds(),
			Note: ev.Note,
		})
	}
	for _, c := range s.Children() {
		out.Children = append(out.Children, exportSpan(c, base))
	}
	return out
}

// --- Chrome trace_event export -------------------------------------------

// chromeEvent is one entry of the Chrome trace_event JSON array (the
// format chrome://tracing and Perfetto load).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   *int64         `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the traces as a Chrome trace_event document:
// one tid per trace (named "<endpoint> <id>"), spans as complete ("X")
// events, span events as thread-scoped instants ("i"). In-flight spans
// export with their duration so far.
func WriteChromeTrace(w io.Writer, traces []*Trace) error {
	var events []chromeEvent
	for i, t := range traces {
		if t == nil {
			continue
		}
		tid := i + 1
		events = append(events, chromeEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  1,
			Tid:  tid,
			Args: map[string]any{"name": t.Endpoint + " " + t.IDString()},
		})
		rootArgs := map[string]any{"trace_id": t.IDString(), "complete": t.Done()}
		if st := t.Status(); st != 0 {
			rootArgs["status"] = st
		}
		events = appendChromeSpan(events, t.Root, tid, rootArgs)
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []chromeEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}

func appendChromeSpan(events []chromeEvent, s *Span, tid int, extra map[string]any) []chromeEvent {
	if s == nil {
		return events
	}
	args := map[string]any{}
	for k, v := range extra {
		args[k] = v
	}
	for _, m := range s.Metrics() {
		args[m.Name] = m.Value
	}
	for _, a := range s.Attrs() {
		args[a.Name] = a.Value
	}
	dur := s.Duration().Microseconds()
	ev := chromeEvent{
		Name: s.Name,
		Cat:  "span",
		Ph:   "X",
		TS:   s.Start().UnixMicro(),
		Dur:  &dur,
		Pid:  1,
		Tid:  tid,
	}
	if len(args) > 0 {
		ev.Args = args
	}
	events = append(events, ev)
	for _, se := range s.Events() {
		inst := chromeEvent{
			Name:  se.Name,
			Cat:   "event",
			Ph:    "i",
			TS:    se.At.UnixMicro(),
			Pid:   1,
			Tid:   tid,
			Scope: "t",
		}
		if se.Note != "" {
			inst.Args = map[string]any{"note": se.Note}
		}
		events = append(events, inst)
	}
	for _, c := range s.Children() {
		events = appendChromeSpan(events, c, tid, nil)
	}
	return events
}

// --- HTTP surface ---------------------------------------------------------

// listSelection resolves the query parameters of a list request.
func (fr *FlightRecorder) listSelection(r *http.Request) []*Trace {
	q := r.URL.Query()
	endpoint := q.Get("endpoint")
	slowOnly := q.Get("slowest") == "1" || q.Get("slowest") == "true"
	var traces []*Trace
	if slowOnly {
		if endpoint != "" {
			traces = fr.Slowest(endpoint)
		} else {
			fr.mu.Lock()
			endpoints := make([]string, 0, len(fr.slowest))
			for ep := range fr.slowest {
				endpoints = append(endpoints, ep)
			}
			fr.mu.Unlock()
			sort.Strings(endpoints)
			for _, ep := range endpoints {
				traces = append(traces, fr.Slowest(ep)...)
			}
		}
		return traces
	}
	traces = fr.Completed()
	traces = append(traces, fr.InFlight()...)
	if endpoint == "" {
		return traces
	}
	keep := traces[:0]
	for _, t := range traces {
		if t.Endpoint == endpoint {
			keep = append(keep, t)
		}
	}
	return keep
}

// HandleList serves GET /debug/traces: every ring and in-flight trace,
// filtered by ?endpoint=, restricted to the slowest reservoirs with
// ?slowest=1, as {"traces": [...]} JSON or Chrome trace_event JSON with
// ?format=chrome.
func (fr *FlightRecorder) HandleList(w http.ResponseWriter, r *http.Request) {
	traces := fr.listSelection(r)
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteChromeTrace(w, traces)
		return
	}
	out := make([]*TraceExport, 0, len(traces))
	for _, t := range traces {
		out = append(out, t.Export())
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Traces []*TraceExport `json:"traces"`
	}{out})
}

// HandleTrace serves GET /debug/traces/{id}: one trace (in-flight traces
// export with durations so far), 404 when the ID is unknown or already
// dropped by ring wrap.
func (fr *FlightRecorder) HandleTrace(w http.ResponseWriter, r *http.Request) {
	id := path.Base(r.URL.Path)
	t := fr.Get(id)
	if t == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(map[string]string{
			"error": "unknown trace " + id + " (dropped by ring wrap, or never recorded)",
			"code":  "unknown_trace",
		})
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteChromeTrace(w, []*Trace{t})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(t.Export())
}
