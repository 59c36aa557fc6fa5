package modsched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// mesh3x3 is the directed hop-count oracle of the paper's 3×3 mesh
// (4-neighborhood), precomputed by BFS.
func mesh3x3() func(a, b int) int {
	adj := func(p int) []int {
		r, c := p/3, p%3
		var out []int
		if r > 0 {
			out = append(out, p-3)
		}
		if r < 2 {
			out = append(out, p+3)
		}
		if c > 0 {
			out = append(out, p-1)
		}
		if c < 2 {
			out = append(out, p+1)
		}
		return out
	}
	var dist [9][9]int
	for s := 0; s < 9; s++ {
		for t := 0; t < 9; t++ {
			dist[s][t] = -1
		}
		dist[s][s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj(u) {
				if dist[s][v] < 0 {
					dist[s][v] = dist[s][u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return func(a, b int) int { return dist[a][b] }
}

func allPEs() []int { return []int{0, 1, 2, 3, 4, 5, 6, 7, 8} }

func base(ops []Op, edges []Edge) *Problem {
	return &Problem{
		NumPEs:   9,
		Dist:     mesh3x3(),
		Ops:      ops,
		Edges:    edges,
		MoveCand: allPEs(),
		MoveDur:  1,
		SubCand:  allPEs(),
		CmpCand:  allPEs(),
		SubDur:   1,
		CmpDur:   1,
	}
}

// verify checks every structural invariant of a solution: windows,
// adjacency, slot/port/C-Box exclusivity, control-pair legality.
func verify(t *testing.T, p *Problem, s *Solution) {
	t.Helper()
	ii := s.II
	for i, o := range s.Ops {
		if s.Time[i] < 0 || s.PE[i] < 0 {
			t.Fatalf("op %s unplaced", o.Name)
		}
		if o.Dur > ii {
			t.Fatalf("op %s: dur %d exceeds II %d", o.Name, o.Dur, ii)
		}
	}
	fin := func(i int) int { return s.Time[i] + s.Ops[i].Dur - 1 }
	for _, e := range s.Edges {
		r := s.Time[e.To] + e.Dist*ii
		if r < fin(e.From)+1 || r > fin(e.From)+ii {
			t.Errorf("edge %s→%s: window violated (issue %d, writer fin %d, dist %d, II %d)",
				s.Ops[e.From].Name, s.Ops[e.To].Name, s.Time[e.To], fin(e.From), e.Dist, ii)
		}
		if s.PE[e.From] != s.PE[e.To] && p.Dist(s.PE[e.From], s.PE[e.To]) > 1 {
			t.Errorf("edge %s→%s: PEs %d→%d not adjacent",
				s.Ops[e.From].Name, s.Ops[e.To].Name, s.PE[e.From], s.PE[e.To])
		}
	}
	busy := map[[2]int]string{}
	claim := func(pe, slot int, who string) {
		k := [2]int{pe, slot}
		if prev, ok := busy[k]; ok {
			t.Errorf("PE %d slot %d: %s and %s overlap", pe, slot, prev, who)
		}
		busy[k] = who
	}
	for i, o := range s.Ops {
		for d := 0; d < o.Dur; d++ {
			claim(s.PE[i], (s.Time[i]+d)%ii, o.Name)
		}
	}
	for d := 0; d < p.SubDur; d++ {
		claim(s.SubPE, (s.CtrlSlot+d)%ii, "ctrl-sub")
	}
	for d := 0; d < p.CmpDur; d++ {
		claim(s.CmpPE, (s.CtrlSlot+d)%ii, "ctrl-cmp")
	}
	if p.Dist(s.SubPE, s.CmpPE) != 1 {
		t.Errorf("control pair PEs %d→%d not adjacent", s.SubPE, s.CmpPE)
	}
	if s.CtrlSlot+p.CmpDur-1 > ii-2 {
		t.Errorf("control consume slot %d too late for back-jump at II-1=%d", s.CtrlSlot+p.CmpDur-1, ii-1)
	}
	ports := map[[2]int]int{}
	for _, e := range s.Edges {
		if s.PE[e.From] == s.PE[e.To] {
			continue
		}
		k := [2]int{s.PE[e.From], s.Time[e.To] % ii}
		if owner, ok := ports[k]; ok && owner != e.From {
			t.Errorf("routing port PE %d slot %d claimed by both %s and %s",
				k[0], k[1], s.Ops[owner].Name, s.Ops[e.From].Name)
		}
		ports[k] = e.From
	}
	if _, ok := ports[[2]int{s.SubPE, s.CtrlSlot}]; ok {
		t.Errorf("control counter port PE %d slot %d also claimed by the body", s.SubPE, s.CtrlSlot)
	}
	cbox := map[int]string{(s.CtrlSlot + p.CmpDur - 1) % ii: "ctrl-cmp"}
	for i, o := range s.Ops {
		if !o.UsesCBox {
			continue
		}
		slot := fin(i) % ii
		if prev, ok := cbox[slot]; ok {
			t.Errorf("C-Box slot %d: %s and %s both consume", slot, prev, o.Name)
		}
		cbox[slot] = o.Name
	}
}

// TestSolveChain schedules a dependence chain with no recurrence: the II
// settles at the structural floor (control pair + durations), not the
// chain length.
func TestSolveChain(t *testing.T) {
	ops := []Op{
		{ID: 0, Name: "a", Dur: 1, Cand: allPEs(), CopyOf: -1},
		{ID: 1, Name: "b", Dur: 2, Cand: allPEs(), CopyOf: -1},
		{ID: 2, Name: "c", Dur: 1, Cand: allPEs(), CopyOf: -1},
	}
	edges := []Edge{{From: 0, To: 1}, {From: 1, To: 2}}
	s, err := Solve(context.Background(), base(ops, edges))
	if err != nil {
		t.Fatal(err)
	}
	verify(t, base(ops, edges), s)
	if s.II != s.MII {
		t.Errorf("II %d, want MII %d", s.II, s.MII)
	}
	if s.RecMII != 1 {
		t.Errorf("RecMII %d, want 1", s.RecMII)
	}
}

// TestSolveRecurrence schedules an accumulator: a self-edge at distance 1
// bounds II by the accumulate latency, and the II honors it.
func TestSolveRecurrence(t *testing.T) {
	ops := []Op{
		{ID: 0, Name: "mul", Dur: 2, Cand: allPEs(), CopyOf: -1},
		{ID: 1, Name: "acc", Dur: 2, Cand: []int{4}, CopyOf: -1},
	}
	edges := []Edge{
		{From: 0, To: 1, Dist: 0},
		{From: 1, To: 1, Dist: 1}, // acc reads its own previous value
	}
	p := base(ops, edges)
	s, err := Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, p, s)
	if s.RecMII != 2 {
		t.Errorf("RecMII %d, want 2", s.RecMII)
	}
}

// TestSolveInsertsCopies forces a topology block: a producer pinned to one
// mesh corner feeding a consumer pinned to the opposite corner (hop
// distance 4). Only inserted MOVE copies make the edge routable.
func TestSolveInsertsCopies(t *testing.T) {
	ops := []Op{
		{ID: 0, Name: "src", Dur: 1, Cand: []int{0}, CopyOf: -1},
		{ID: 1, Name: "dst", Dur: 1, Cand: []int{8}, CopyOf: -1},
	}
	edges := []Edge{{From: 0, To: 1}}
	p := base(ops, edges)
	s, err := Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, p, s)
	copies := 0
	for _, o := range s.Ops {
		if o.CopyOf >= 0 {
			copies++
		}
	}
	if copies < 3 {
		t.Errorf("inserted %d copies, want ≥ 3 to bridge 4 hops", copies)
	}
}

// TestSolveReportsAttempts asserts the diagnostics contract: every II tried
// appears in Attempts, the last one succeeding with an empty Err.
func TestSolveReportsAttempts(t *testing.T) {
	ops := []Op{{ID: 0, Name: "a", Dur: 1, Cand: allPEs(), CopyOf: -1}}
	p := base(ops, nil)
	s, err := Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Attempts) == 0 {
		t.Fatal("no attempts recorded")
	}
	last := s.Attempts[len(s.Attempts)-1]
	if last.II != s.II || last.Err != "" {
		t.Errorf("last attempt = %+v, want II %d with empty Err", last, s.II)
	}
	for i, a := range s.Attempts {
		if a.II != s.MII+i {
			t.Errorf("attempt %d at II %d, want %d", i, a.II, s.MII+i)
		}
	}
}

// TestSolveValidation rejects malformed problems fast.
func TestSolveValidation(t *testing.T) {
	cases := []*Problem{
		{},
		{NumPEs: 9, Dist: mesh3x3()},
		base([]Op{{ID: 0, Name: "a", Dur: 0, Cand: allPEs()}}, nil),
		base([]Op{{ID: 0, Name: "a", Dur: 1}}, nil),
		base([]Op{{ID: 5, Name: "a", Dur: 1, Cand: allPEs()}}, nil),
		base([]Op{{ID: 0, Name: "a", Dur: 1, Cand: allPEs()}}, []Edge{{From: 0, To: 3}}),
	}
	for i, p := range cases {
		if _, err := Solve(context.Background(), p); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

// TestSolveDeadline aborts a deliberately hard search promptly: a large,
// heavily conflicting body with an enormous ejection budget would churn for
// a long time, but a 50ms deadline must cut the search short via the per-
// slice context checks.
func TestSolveDeadline(t *testing.T) {
	// One writer fans out to far more readers than the machine can carry
	// at the resource-bound II: each cross-PE reader claims one of the
	// writer's II routing-port slots and each co-located reader one of its
	// II issue slots, so low-II attempts churn through ejections (bounded
	// only by the enormous budget) before the search can climb.
	const readers = 400
	ops := []Op{{ID: 0, Name: "w", Dur: 1, Cand: allPEs(), CopyOf: -1}}
	var edges []Edge
	for i := 1; i <= readers; i++ {
		ops = append(ops, Op{ID: i, Name: "r", Dur: 1, Cand: allPEs(), CopyOf: -1})
		edges = append(edges, Edge{From: 0, To: i, Dist: 0})
	}
	p := base(ops, edges)
	p.Budget = 1 << 30
	p.MaxCopies = 1 << 30
	p.MaxII = 100000

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Solve(ctx, p)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("hard search succeeded unexpectedly fast; deadline never engaged")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("search took %v to notice a 50ms deadline", elapsed)
	}
}

// conflictsRef is the conflict search as it was before the reservation
// tables: it rebuilds every routing-port claim of the placed body from all
// edges on every probe and compares the claims pairwise. It stays as the
// oracle for the table-based conflicts, and is the only from-scratch claim
// rebuild there is.
func (st *attempt) conflictsRef(op, t, pe int) []int {
	var conf []int
	seen := map[int]bool{}
	add := func(q int) {
		if !seen[q] {
			seen[q] = true
			conf = append(conf, q)
		}
	}
	slots := func(t0, dur int) map[int]bool {
		m := map[int]bool{}
		for d := 0; d < dur; d++ {
			m[(t0+d)%st.ii] = true
		}
		return m
	}
	dist := func(a, b int) int { return st.p.Dist(a, b) }
	// Dependence windows against placed partners:
	// fin(W)+1 ≤ issue(R)+Dist·II ≤ fin(W)+II.
	fin := t + st.ops[op].Dur - 1
	for _, ei := range st.in[op] {
		ed := st.edges[ei]
		if st.time[ed.From] < 0 {
			continue
		}
		r := t + ed.Dist*st.ii
		if r < st.fin(ed.From)+1 || r > st.fin(ed.From)+st.ii {
			add(ed.From)
		}
	}
	for _, ei := range st.out[op] {
		ed := st.edges[ei]
		if st.time[ed.To] < 0 {
			continue
		}
		r := st.time[ed.To] + ed.Dist*st.ii
		if r < fin+1 || r > fin+st.ii {
			add(ed.To)
		}
	}
	mine := slots(t, st.ops[op].Dur)
	for q := range st.ops {
		if q == op || st.time[q] < 0 || st.pe[q] != pe {
			continue
		}
		for d := 0; d < st.ops[q].Dur; d++ {
			if mine[(st.time[q]+d)%st.ii] {
				add(q)
				break
			}
		}
	}
	// Routing adjacency against placed partners.
	for _, ei := range st.in[op] {
		ed := st.edges[ei]
		if st.time[ed.From] >= 0 && st.pe[ed.From] != pe && dist(st.pe[ed.From], pe) > 1 {
			add(ed.From)
		}
	}
	for _, ei := range st.out[op] {
		ed := st.edges[ei]
		if st.time[ed.To] >= 0 && st.pe[ed.To] != pe && dist(pe, st.pe[ed.To]) > 1 {
			add(ed.To)
		}
	}
	// Routing-output port: a PE's output register holds one value per
	// modulo slot; every cross-PE reader of op's value claims (pe,
	// reader-slot), and op's own cross-PE reads claim the writer's port.
	type claim struct{ pe, slot, owner int }
	var claims []claim
	for _, ed := range st.edges {
		wr, rd := ed.From, ed.To
		var wpe, rslot, owner int
		switch {
		case wr == op && st.time[rd] >= 0:
			wpe, rslot, owner = pe, st.time[rd]%st.ii, op
			if st.pe[rd] == pe {
				continue
			}
		case rd == op && st.time[wr] >= 0:
			wpe, rslot, owner = st.pe[wr], t%st.ii, wr
			if wpe == pe {
				continue
			}
		case st.time[wr] >= 0 && st.time[rd] >= 0 && st.pe[wr] != st.pe[rd]:
			wpe, rslot, owner = st.pe[wr], st.time[rd]%st.ii, wr
		default:
			continue
		}
		claims = append(claims, claim{wpe, rslot, owner})
	}
	for i := 0; i < len(claims); i++ {
		for j := i + 1; j < len(claims); j++ {
			a, b := claims[i], claims[j]
			if a.pe == b.pe && a.slot == b.slot && a.owner != b.owner {
				// Blame the placed participant that is not the op being
				// placed.
				if a.owner != op {
					add(a.owner)
				}
				if b.owner != op {
					add(b.owner)
				}
			}
		}
	}
	// C-Box consume port: one per modulo slot.
	if st.ops[op].UsesCBox {
		myslot := (t + st.ops[op].Dur - 1) % st.ii
		for q := range st.ops {
			if q != op && st.time[q] >= 0 && st.ops[q].UsesCBox &&
				(st.time[q]+st.ops[q].Dur-1)%st.ii == myslot {
				add(q)
			}
		}
	}
	sort.Ints(conf)
	return conf
}

// tablesRef rebuilds the three reservation tables from time, pe and edges,
// and with them states the invariant the table-based conflicts relies on:
// the placed body is conflict-free. A cell two placed ops both need, or an
// edge between placed ops that breaks its window or its adjacency, is
// reported as a violation.
func (st *attempt) tablesRef() (slot, port, portRef, cbox []int, violations []string) {
	ii, n := st.ii, st.p.NumPEs
	slot, port, portRef, cbox = fill(nil, n*ii, -1), fill(nil, n*ii, -1), fill(nil, n*ii, 0), fill(nil, ii, -1)
	own := func(table []int, cell, op int, what string) {
		if q := table[cell]; q >= 0 && q != op {
			violations = append(violations, fmt.Sprintf("%s cell %d (PE %d, slot %d): placed ops %s and %s both hold it",
				what, cell, cell/ii, cell%ii, st.ops[q].Name, st.ops[op].Name))
		}
		table[cell] = op
	}
	for op := range st.ops {
		if st.time[op] < 0 {
			continue
		}
		for d := 0; d < st.ops[op].Dur; d++ {
			own(slot, st.pe[op]*ii+(st.time[op]+d)%ii, op, "issue")
		}
		if st.ops[op].UsesCBox {
			own(cbox, st.fin(op)%ii, op, "C-Box")
		}
	}
	for _, ed := range st.edges {
		w, r := ed.From, ed.To
		if st.time[w] < 0 || st.time[r] < 0 {
			continue
		}
		if x := st.time[r] + ed.Dist*ii; x < st.fin(w)+1 || x > st.fin(w)+ii {
			violations = append(violations, fmt.Sprintf("edge %s→%s: window violated", st.ops[w].Name, st.ops[r].Name))
		}
		if st.pe[w] == st.pe[r] {
			continue
		}
		if st.p.Dist(st.pe[w], st.pe[r]) > 1 {
			violations = append(violations, fmt.Sprintf("edge %s→%s: PEs %d→%d not adjacent", st.ops[w].Name, st.ops[r].Name, st.pe[w], st.pe[r]))
		}
		cell := st.pe[w]*ii + st.time[r]%ii
		own(port, cell, w, "port")
		portRef[cell]++
	}
	return
}

// Oracle checks every attempt of every Solve made while f runs: each
// conflict probe must find the set conflictsRef finds, and after each
// place, eject and insertCopy the incremental tables must equal tablesRef's
// with the placed body conflict-free. It returns the problems solved, in
// order, and the number of probes checked. The first few differences are
// reported in full, the rest counted.
func Oracle(t testing.TB, f func()) (problems []*Problem, probes int) {
	t.Helper()
	bad := 0
	report := func(format string, args ...any) {
		if bad++; bad <= 5 {
			t.Errorf(format, args...)
		}
	}
	saved := testCheck
	defer func() { testCheck = saved }()
	testCheck = &checker{
		probed: func(st *attempt, op, tm, pe int) {
			probes++
			got := slices.Clone(st.conf)
			sort.Ints(got)
			if want := st.conflictsRef(op, tm, pe); !slices.Equal(got, want) {
				report("II=%d: conflicts(%s, t=%d, pe=%d) = %v, reference %v", st.ii, st.ops[op].Name, tm, pe, got, want)
			}
		},
		updated: func(st *attempt) {
			if len(problems) == 0 || problems[len(problems)-1] != st.p {
				problems = append(problems, st.p)
			}
			slot, port, portRef, cbox, violations := st.tablesRef()
			for _, v := range violations {
				report("II=%d: placed body not conflict-free: %s", st.ii, v)
			}
			for _, tb := range []struct {
				name      string
				got, want []int
			}{{"slot", st.slot, slot}, {"port", st.port, port}, {"portRef", st.portRef, portRef}, {"cbox", st.cbox, cbox}} {
				if !slices.Equal(tb.got, tb.want) {
					report("II=%d: %s table %v, rebuilt %v", st.ii, tb.name, tb.got, tb.want)
				}
			}
		},
	}
	f()
	if bad > 5 {
		t.Errorf("%d more differences", bad-5)
	}
	return problems, probes
}

// ring is the hop-count oracle of n PEs on a one-way ring: irregular in the
// sense that matters here, Dist(a, b) ≠ Dist(b, a).
func ring(n int) func(a, b int) int {
	return func(a, b int) int { return ((b-a)%n + n) % n }
}

// randomProblem draws a loop body meant to collide: multi-cycle ops (so
// some attempts run at II == Dur), pinned ops, C-Box users, parallel edges,
// self-recurrences and loop-carried back edges, on the mesh or the ring.
func randomProblem(rng *rand.Rand) *Problem {
	npe, dist := 9, mesh3x3()
	if rng.Intn(3) == 0 {
		npe, dist = 5, ring(5)
	}
	pes := make([]int, npe)
	for i := range pes {
		pes[i] = i
	}
	n := 2 + rng.Intn(9)
	p := &Problem{
		NumPEs: npe, Dist: dist,
		MoveCand: pes, MoveDur: 1,
		SubCand: pes, CmpCand: pes, SubDur: 1, CmpDur: 1 + rng.Intn(2),
		// A body that will not fit burns its whole budget at every II.
		Budget: 60, MaxCopies: 12, MaxII: 6,
	}
	for i := 0; i < n; i++ {
		o := Op{ID: i, Name: fmt.Sprintf("o%d", i), Dur: 1 + rng.Intn(3), Cand: pes, CopyOf: -1}
		switch rng.Intn(5) {
		case 0: // pinned
			o.Cand = []int{rng.Intn(npe)}
		case 1: // a subset, in shuffled preference order
			o.Cand = rng.Perm(npe)[:1+rng.Intn(npe)]
		}
		o.UsesCBox = rng.Intn(5) == 0
		p.Ops = append(p.Ops, o)
		for k := rng.Intn(3); k > 0 && i > 0; k-- {
			e := Edge{From: rng.Intn(i), To: i}
			p.Edges = append(p.Edges, e)
			if rng.Intn(6) == 0 {
				p.Edges = append(p.Edges, e) // both operands read one value
			}
		}
		if rng.Intn(6) == 0 {
			p.Edges = append(p.Edges, Edge{From: i, To: i, Dist: 1})
		}
		if i > 0 && rng.Intn(5) == 0 {
			p.Edges = append(p.Edges, Edge{From: i, To: rng.Intn(i), Dist: 1 + rng.Intn(2)})
		}
	}
	return p
}

// TestTablesMatchReferenceOnRandomProblems runs the oracle over seeded
// random problems; the ones that solve must also pass verify.
func TestTablesMatchReferenceOnRandomProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	solved, copies, ejections, durII := 0, 0, 0, 0
	_, probes := Oracle(t, func() {
		for i := 0; i < 300; i++ {
			p := randomProblem(rng)
			s, err := Solve(context.Background(), p)
			var nse *NoScheduleError
			if errors.As(err, &nse) {
				ejections += nse.Backtracks
				continue
			}
			if err != nil {
				t.Fatalf("problem %d: %v", i, err)
			}
			verify(t, p, s)
			solved++
			copies += len(s.Ops) - len(p.Ops)
			ejections += s.Backtracks
			for _, o := range s.Ops {
				if o.Dur == s.II {
					durII++
					break
				}
			}
		}
	})
	t.Logf("%d of 300 solved, %d probes, %d copies, %d ejections, %d solutions with an op of Dur == II", solved, probes, copies, ejections, durII)
	// The generator is only worth its time while it reaches the paths the
	// tables have to get right.
	if solved < 150 || copies == 0 || ejections == 0 || durII == 0 {
		t.Errorf("generator lost coverage: %d solved, %d copies, %d ejections, %d with Dur == II", solved, copies, ejections, durII)
	}
}

// TestProbeAllocatesNothing: the conflict probe is the innermost step of
// the placement loop — II × |Cand| probes per scan, two scans per forced
// placement — so once an attempt's scratch buffers have grown, a probe, a
// candidate ordering and a whole findFree scan must leave the heap alone.
func TestProbeAllocatesNothing(t *testing.T) {
	// A fan-out body: every reader shares the writer's port or its PE.
	ops := []Op{{ID: 0, Name: "w", Dur: 2, Cand: allPEs(), CopyOf: -1}}
	var edges []Edge
	for i := 1; i <= 8; i++ {
		ops = append(ops, Op{ID: i, Name: fmt.Sprintf("r%d", i), Dur: 1 + i%2, Cand: allPEs(), CopyOf: -1, UsesCBox: i%4 == 0})
		edges = append(edges, Edge{From: 0, To: i}, Edge{From: i, To: i, Dist: 1})
	}
	p := base(ops, edges)
	st := newAttempt(p)
	st.reset(6)
	if sol, a := st.run(context.Background()); sol == nil {
		t.Fatalf("warm-up attempt failed: %+v", a)
	}
	// With the writer taken back out, every probe of it meets its readers.
	st.eject(0)
	e := st.earliest(0)
	probes := 0
	if allocs := testing.AllocsPerRun(20, func() {
		for tm := e; tm < e+st.ii; tm++ {
			for _, pe := range st.ops[0].Cand {
				probes += len(st.conflicts(0, tm, pe))
			}
		}
	}); allocs != 0 {
		t.Errorf("probing every (time, PE) of the window allocates %.0f objects, want 0", allocs)
	}
	if probes == 0 {
		t.Error("no probe found a conflict: the attempt is not warm")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		st.candOrder(0)
		st.findFree(0, e)
		st.findForced(0, e)
	}); allocs != 0 {
		t.Errorf("candOrder + findFree + findForced allocate %.0f objects, want 0", allocs)
	}
}
