package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cgra/internal/arch"
	"cgra/internal/modsched"
	"cgra/internal/route"
)

func nine(t *testing.T) *arch.Composition {
	t.Helper()
	c, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const dotSrc = `
kernel dot(array a, array b, in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) {
		s = s + a[i] * b[i];
		i = i + 1;
	}
}`

// TestModuloPipelinesDot checks the modulo backend pipelines the dot-product
// loop, the result verifies, and the initiation interval undercuts the list
// layout's per-iteration context count.
func TestModuloPipelinesDot(t *testing.T) {
	comp := nine(t)
	g := compile(t, dotSrc)
	ms, err := Run(g, comp, Options{Backend: BackendModulo})
	if err != nil {
		t.Fatalf("modulo: %v", err)
	}
	if err := Verify(ms); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(ms.Pipelined) != 1 || ms.Stats.PipelinedLoops != 1 {
		t.Fatalf("pipelined = %+v, stats = %d, want exactly one", ms.Pipelined, ms.Stats.PipelinedLoops)
	}
	pl := ms.Pipelined[0]
	if pl.II < pl.MII || pl.MII < pl.ResMII || pl.MII < pl.RecMII {
		t.Errorf("inconsistent II report: %+v", pl)
	}
	if pl.Stages < 1 || pl.Ops == 0 {
		t.Errorf("degenerate pipeline: %+v", pl)
	}

	ls, err := Run(compile(t, dotSrc), comp, Options{})
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	lr := ls.LoopRanges[0]
	iter := lr[1] - lr[0] + 1 // contexts per list iteration (header + body + jump)
	if pl.II >= iter {
		t.Errorf("modulo II %d not below list per-iteration latency %d", pl.II, iter)
	}
}

// TestModuloFallsBackOnIneligibleLoop: a body with a store is not pipelined;
// the modulo backend must produce the list layout and log why.
func TestModuloFallsBackOnIneligibleLoop(t *testing.T) {
	src := `
kernel copy(array x, array y, in n) {
	i = 0;
	while (i < n) {
		y[i] = x[i];
		i = i + 1;
	}
}`
	log := NewExplainLog()
	s, err := Run(compile(t, src), nine(t), Options{Backend: BackendModulo, Explain: log})
	if err != nil {
		t.Fatalf("modulo: %v", err)
	}
	if len(s.Pipelined) != 0 {
		t.Fatalf("store loop pipelined: %+v", s.Pipelined)
	}
	if log.Counts()[RejectPipelineIneligible] == 0 {
		t.Error("no pipeline-ineligible entry in the explain log")
	}
}

// TestModuloExplainAttempts: every II attempt (failed and accepted) lands in
// the explain log, so an II search is replayable post-mortem.
func TestModuloExplainAttempts(t *testing.T) {
	log := NewExplainLog()
	s, err := Run(compile(t, dotSrc), nine(t), Options{Backend: BackendModulo, Explain: log})
	if err != nil {
		t.Fatalf("modulo: %v", err)
	}
	attempts := int64(s.Pipelined[0].Attempts)
	if got := log.Counts()[RejectIIAttempt]; got != attempts {
		t.Errorf("logged %d ii-attempt entries, schedule reports %d attempts", got, attempts)
	}
	var accepted bool
	for _, e := range log.Entries() {
		if e.Cause == RejectIIAttempt && strings.Contains(e.Node, fmt.Sprintf("II=%d", s.Pipelined[0].II)) && strings.HasSuffix(e.Node, ": ok") {
			accepted = true
		}
	}
	if !accepted {
		t.Error("accepted II attempt not logged")
	}
}

// TestModuloDeadline: cancellation reaches the modulo search. An expired
// deadline aborts immediately; a 50ms deadline on a wide loop returns —
// scheduled or cancelled — well before a runaway II search could.
func TestModuloDeadline(t *testing.T) {
	// A wide eligible body: 24 independent multiply-accumulate chains keep
	// the solver busy across many II attempts.
	var b strings.Builder
	b.WriteString("kernel wide(array x, in n")
	for c := 0; c < 24; c++ {
		fmt.Fprintf(&b, ", inout s%d", c)
	}
	b.WriteString(") {\n\ti = 0;\n\twhile (i < n) {\n")
	for c := 0; c < 24; c++ {
		fmt.Fprintf(&b, "\t\ts%d = s%d + x[i] * %d;\n", c, c, c+3)
	}
	b.WriteString("\t\ti = i + 1;\n\t}\n}")
	g := compile(t, b.String())
	comp := nine(t)

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	if _, err := RunCtx(expired, g, comp, Options{Backend: BackendModulo}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("expired deadline took %v to surface", el)
	}

	ctx, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	start = time.Now()
	_, err := RunCtx(ctx, g, comp, Options{Backend: BackendModulo})
	if el := time.Since(start); el > time.Second {
		t.Fatalf("50ms deadline: returned after %v (err=%v)", el, err)
	}
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestResolveFeedsFollowsCopyChains: a producer pinned to one corner of the
// mesh and its reader pinned to the opposite one are four hops apart, so the
// solver bridges the edge with a chain of copies W→C1→C2→C3→R in which each
// copy names the op it split from — C2 and C3 name a copy. resolveFeeds has
// to trace the reader's in-edge back to W through all of them (following
// CopyOf one step ended in "no edge for producer").
func TestResolveFeedsFollowsCopyChains(t *testing.T) {
	comp := nine(t)
	all := make([]int, comp.NumPEs())
	for i := range all {
		all[i] = i
	}
	p := &modsched.Problem{
		NumPEs: comp.NumPEs(), Dist: route.New(comp).Dist,
		Ops: []modsched.Op{
			{ID: 0, Name: "w", Dur: 1, Cand: []int{0}, CopyOf: -1},
			{ID: 1, Name: "r", Dur: 1, Cand: []int{8}, CopyOf: -1},
		},
		Edges:    []modsched.Edge{{From: 0, To: 1}},
		MoveCand: all, MoveDur: 1,
		SubCand: all, CmpCand: all, SubDur: 1, CmpDur: 1,
	}
	sol, err := modsched.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	chained := false
	for _, o := range sol.Ops {
		if o.CopyOf >= 0 && sol.Ops[o.CopyOf].CopyOf >= 0 {
			chained = true
		}
	}
	if !chained {
		t.Fatalf("no copy of a copy in %+v: the problem does not exercise a chain", sol.Ops)
	}
	plan := &pipePlan{ops: []pipeOp{{}, {args: []pipeArg{{producer: 0}}}}}
	feeds, err := resolveFeeds(plan, sol)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the chain back from the reader: every link one hop, ending at w.
	hops, at := 0, 1
	for at != 0 {
		from := feeds[at][0]
		if d := p.Dist(sol.PE[from], sol.PE[at]); d > 1 {
			t.Fatalf("feed %d→%d spans %d hops", from, at, d)
		}
		at = from
		if hops++; hops > len(sol.Ops) {
			t.Fatalf("feeds %v do not lead back to the producer", feeds)
		}
	}
	if hops != len(sol.Ops)-1 {
		t.Errorf("chain of %d links, want all %d copies on it", hops, len(sol.Ops)-2)
	}
}
