package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

// mkTrace builds a finished trace whose duration is forced to d by
// backdating the root span's start (white-box: tests own the clock).
func mkTrace(fr *FlightRecorder, endpoint string, d time.Duration, status int) *Trace {
	tr := NewTrace(NewTraceID(), endpoint, "server."+endpoint)
	tr.Root.start = time.Now().Add(-d)
	fr.Begin(tr)
	fr.End(tr, status)
	return tr
}

func TestFlightRingWrapDropsOldest(t *testing.T) {
	fr := newFlightRecorder(4, 2)
	var ids []string
	for i := 0; i < 6; i++ {
		tr := mkTrace(fr, "run", time.Duration(i+1)*time.Millisecond, 200)
		ids = append(ids, tr.ID.String())
	}
	if got := fr.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
	done := fr.Completed()
	if len(done) != 4 {
		t.Fatalf("ring holds %d, want 4", len(done))
	}
	// Oldest first: traces 2..5 survive, 0 and 1 were dropped by the wrap.
	for i, tr := range done {
		if want := ids[i+2]; tr.ID.String() != want {
			t.Fatalf("ring[%d] = %s, want %s", i, tr.ID.String(), want)
		}
	}
	// Trace 1 was dropped from the ring AND from the slowest reservoir
	// (2 slots, traces 4 and 5 are slower): fully gone.
	if got := fr.Get(ids[1]); got != nil {
		t.Fatalf("dropped trace %s still retrievable", ids[1])
	}
	// Trace 5 is in both ring and reservoir.
	if got := fr.Get(ids[5]); got == nil {
		t.Fatal("newest trace not retrievable")
	}
}

func TestFlightSlowestReservoir(t *testing.T) {
	fr := newFlightRecorder(64, 3)
	durations := []time.Duration{5, 1, 9, 3, 7, 2} // ms
	var traces []*Trace
	for _, d := range durations {
		traces = append(traces, mkTrace(fr, "run", d*time.Millisecond, 200))
	}
	slow := fr.Slowest("run")
	if len(slow) != 3 {
		t.Fatalf("reservoir holds %d, want 3", len(slow))
	}
	// Slowest first: 9ms, 7ms, 5ms — the 1/2/3ms traces never displaced a
	// slower resident.
	want := []*Trace{traces[2], traces[4], traces[0]}
	for i := range want {
		if slow[i] != want[i] {
			t.Fatalf("slowest[%d] = %s (%.1fms), want %s", i, slow[i].ID, ms(slow[i].Duration()), want[i].ID)
		}
	}
	// A different endpoint has its own reservoir.
	if got := fr.Slowest("compile"); len(got) != 0 {
		t.Fatalf("compile reservoir = %d traces, want 0", len(got))
	}
	// A trace present only in a reservoir (evicted from a tiny ring) is
	// still retrievable by ID.
	fr2 := newFlightRecorder(1, 2)
	slowTr := mkTrace(fr2, "run", 50*time.Millisecond, 200)
	mkTrace(fr2, "run", time.Millisecond, 200) // wraps the 1-slot ring
	if got := fr2.Get(slowTr.ID.String()); got != slowTr {
		t.Fatal("reservoir-only trace not retrievable")
	}
}

func TestFlightInFlightExport(t *testing.T) {
	fr := newFlightRecorder(8, 2)
	tr := NewTrace(NewTraceID(), "run", "server.run")
	fr.Begin(tr)
	sp := tr.Root.StartChild("admission")

	inflight := fr.InFlight()
	if len(inflight) != 1 || inflight[0] != tr {
		t.Fatalf("inflight = %v, want the open trace", inflight)
	}
	if got := fr.Get(tr.ID.String()); got != tr {
		t.Fatal("in-flight trace not retrievable by ID")
	}
	// Exporting a live trace must not finish it, and must mark it
	// incomplete with durations-so-far.
	exp := tr.Export()
	if exp.Complete {
		t.Fatal("in-flight export marked complete")
	}
	if exp.Root == nil || len(exp.Root.Children) != 1 || exp.Root.Children[0].Complete {
		t.Fatalf("in-flight export tree wrong: %+v", exp.Root)
	}
	if tr.Done() {
		t.Fatal("export finished the trace")
	}

	sp.Finish()
	fr.End(tr, 200)
	if got := fr.InFlight(); len(got) != 0 {
		t.Fatalf("inflight after End = %d, want 0", len(got))
	}
	exp = tr.Export()
	if !exp.Complete || exp.Status != 200 {
		t.Fatalf("completed export: complete=%v status=%d", exp.Complete, exp.Status)
	}
}

func TestChromeTraceExport(t *testing.T) {
	fr := newFlightRecorder(8, 2)
	tr := NewTrace(NewTraceID(), "run", "server.run")
	fr.Begin(tr)
	adm := tr.Root.StartChild("admission")
	adm.Event("shed", "overloaded")
	adm.Finish()
	eng := tr.Root.StartChild("engine")
	eng.Set("cycles", 1234)
	eng.Annotate("path", "fast")
	eng.Finish()
	fr.End(tr, 200)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []*Trace{tr}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Ph    string         `json:"ph"`
			Dur   *int64         `json:"dur"`
			Tid   int            `json:"tid"`
			Scope string         `json:"s"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	byName := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byName[ev.Name]++
		switch ev.Name {
		case "server.run":
			if ev.Ph != "X" || ev.Dur == nil {
				t.Fatalf("root event malformed: %+v", ev)
			}
			if ev.Args["trace_id"] != tr.ID.String() {
				t.Fatalf("root args missing trace_id: %v", ev.Args)
			}
			if ev.Args["complete"] != true {
				t.Fatalf("root args complete = %v", ev.Args["complete"])
			}
		case "engine":
			if ev.Args["path"] != "fast" || ev.Args["cycles"] != float64(1234) {
				t.Fatalf("engine args = %v", ev.Args)
			}
		case "shed":
			if ev.Ph != "i" || ev.Scope != "t" {
				t.Fatalf("instant event malformed: %+v", ev)
			}
		}
	}
	for _, want := range []string{"thread_name", "server.run", "admission", "engine", "shed"} {
		if byName[want] == 0 {
			t.Fatalf("chrome export missing %q event (have %v)", want, byName)
		}
	}
	// An empty export still produces a valid document with an array.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"traceEvents":[]`)) {
		t.Fatalf("empty export = %s", buf.String())
	}
}

func TestFlightHTTPHandlers(t *testing.T) {
	fr := newFlightRecorder(8, 2)
	slow := mkTrace(fr, "run", 20*time.Millisecond, 200)
	mkTrace(fr, "run", time.Millisecond, 200)
	mkTrace(fr, "compile", 2*time.Millisecond, 200)

	get := func(url string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		req := httptest.NewRequest("GET", url, nil)
		if url[:13] == "/debug/traces" && len(url) > 13 && url[13] == '/' {
			fr.HandleTrace(w, req)
		} else {
			fr.HandleList(w, req)
		}
		return w
	}

	var list struct {
		Traces []*TraceExport `json:"traces"`
	}
	w := get("/debug/traces")
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil || len(list.Traces) != 3 {
		t.Fatalf("list: err=%v n=%d", err, len(list.Traces))
	}
	w = get("/debug/traces?endpoint=run")
	if json.Unmarshal(w.Body.Bytes(), &list); len(list.Traces) != 2 {
		t.Fatalf("endpoint filter: n=%d, want 2", len(list.Traces))
	}
	w = get("/debug/traces?endpoint=run&slowest=1")
	if json.Unmarshal(w.Body.Bytes(), &list); len(list.Traces) != 2 || list.Traces[0].ID != slow.ID.String() {
		t.Fatalf("slowest: %+v", list.Traces)
	}

	w = get("/debug/traces/" + slow.ID.String())
	var one TraceExport
	if err := json.Unmarshal(w.Body.Bytes(), &one); err != nil || one.ID != slow.ID.String() {
		t.Fatalf("get by id: err=%v id=%s", err, one.ID)
	}
	w = get("/debug/traces/" + NewTraceID().String())
	if w.Code != 404 {
		t.Fatalf("unknown id: HTTP %d, want 404", w.Code)
	}
	var e struct {
		Code string `json:"code"`
	}
	if json.Unmarshal(w.Body.Bytes(), &e); e.Code != "unknown_trace" {
		t.Fatalf("404 body code = %q", e.Code)
	}

	w = get("/debug/traces?format=chrome")
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("chrome list: err=%v events=%d", err, len(doc.TraceEvents))
	}
}
