// Package modsched implements an iterative modulo scheduler (Rau-style) for
// inhomogeneous, irregularly-routed CGRA compositions. The problem is
// abstract — operations with candidate-PE sets, dependence edges with
// iteration distances, a routing-distance oracle — so the package has no
// dependency on the CDFG or architecture layers; internal/sched extracts a
// Problem from an eligible loop body and realizes the Solution as contexts.
//
// The solver searches II = MII, MII+1, … (MII = max(ResMII, RecMII)). Each
// attempt places operations in height-priority order into a modulo
// reservation table, with budget-bounded eject-and-retry backtracking.
// When an operation cannot reach a fixed partner within the one-hop routing
// constraint, the solver splits the dependence edge with a MOVE copy op —
// the modulo-time analogue of the list scheduler's routing-copy insertion.
//
// The reservation table is three dense tables per attempt:
//
//   - slot [PE×II]: the op holding PE's issue slot (an op of latency Dur
//     holds Dur consecutive slots modulo II);
//   - port [PE×II]: the op whose value PE's routing output carries in that
//     slot, with a reference count, since every cross-PE reader claims the
//     writer's port at its own issue slot and readers of one value share;
//   - cbox [II]: the op consuming the C-Box port in that slot.
//
// Only reserve — called by place and eject, and through eject by insertCopy
// before it rewrites the edge — updates them. A conflict probe reads them
// and walks nothing but the probed op's own edges, which is sound because of
// one invariant: the placed body is conflict-free at all times. A free
// placement adds no conflict by definition, and a forced placement ejects
// its whole conflict set before it places, so every table cell has at most
// one owner and a probe never has to look for collisions among placed ops.
package modsched

import (
	"context"
	"fmt"
	"slices"
)

// Op is one operation of the loop body.
type Op struct {
	// ID indexes the op in Problem.Ops (and, for copies the solver adds,
	// extends that numbering densely).
	ID int
	// Name labels the op in diagnostics.
	Name string
	// Dur is the issue-to-result latency. It must be uniform across Cand
	// (callers filter candidates to the op's minimum duration).
	Dur int
	// Cand lists candidate PEs in preference order. A single-element Cand
	// pins the op (home-fused writes, for instance).
	Cand []int
	// CopyOf is -1 for caller ops; for solver-inserted copies it names the
	// op whose result value this MOVE forwards. That op may itself be a
	// copy (a routing chain W→C1→C2→R gives C2.CopyOf = C1): follow CopyOf
	// until it is -1 to reach the value's original producer.
	CopyOf int
	// UsesCBox marks ops that occupy the C-Box consume port at their
	// finish slot (compares feeding predication; unused by plain bodies).
	UsesCBox bool
}

// Edge is a dependence arc From → To with iteration distance Dist: the
// reader's issue must satisfy
//
//	finish(From) + 1 ≤ issue(To) + Dist·II ≤ finish(From) + II
//
// The lower bound is value availability; the upper bound keeps the value's
// lifetime within one II so a single pinned register per op suffices (no
// modulo variable expansion). Additionally the reader's PE must be within
// routing distance 1 of the writer's PE.
type Edge struct {
	From, To int
	Dist     int
}

// Problem describes one loop body to modulo-schedule.
type Problem struct {
	// NumPEs is the composition size; PE indices are 0..NumPEs-1.
	NumPEs int
	// Dist is the directed routing distance oracle: Dist(a, b) is the hop
	// count for b reading a's output (0 = same PE, 1 = direct neighbor).
	Dist func(a, b int) int
	// Ops are the loop-body operations. IDs must equal slice indices.
	Ops []Op
	// Edges are the dependence arcs over Ops.
	Edges []Edge
	// MoveCand lists PEs able to host inserted routing copies.
	MoveCand []int
	// MoveDur is the latency of a routing copy (typically 1).
	MoveDur int
	// SubCand/CmpCand list PEs able to host the loop-control decrement and
	// compare. The pair must be routing-adjacent (the compare reads the
	// decremented counter over the routing network) and shares one kernel
	// slot m0 with m0 ≤ II-SubDur and m0+CmpDur-1 ≤ II-2 so the compare's
	// C-Box consume lands before the conditional back-jump at slot II-1.
	SubCand, CmpCand []int
	SubDur, CmpDur   int
	// MaxII bounds the search (0 = MII + 12).
	MaxII int
	// Budget bounds ejections per II attempt (0 = 16 + 8·len(Ops)).
	Budget int
	// MaxCopies bounds inserted routing copies per II attempt
	// (0 = 8 + 4·len(Ops)).
	MaxCopies int
}

// Attempt records one II attempt for diagnostics.
type Attempt struct {
	II        int
	Placed    int
	Ejections int
	Copies    int
	// Err is empty on the successful attempt.
	Err string
}

// Solution is a feasible modulo schedule.
type Solution struct {
	II, MII, ResMII, RecMII int
	// Stages is ⌈max over ops of (Time+Dur)⌉/II: the software-pipeline
	// depth (number of overlapped iterations).
	Stages int
	// Ops extends Problem.Ops with inserted routing copies.
	Ops []Op
	// Edges is the final edge set after copy insertion.
	Edges []Edge
	// Time and PE give each op's schedule time within the flattened
	// iteration (0 ≤ Time, stage = Time/II, slot = Time%II) and placement.
	Time, PE []int
	// CtrlSlot, SubPE, CmpPE place the loop-control pair: the counter
	// decrement on SubPE and the exit compare on CmpPE, both at kernel
	// slot CtrlSlot.
	CtrlSlot, SubPE, CmpPE int
	// Backtracks totals ejections across all II attempts.
	Backtracks int
	// Attempts lists every II tried, including the successful one.
	Attempts []Attempt
}

// NoScheduleError reports an exhausted II search with its diagnostics.
type NoScheduleError struct {
	MII, ResMII, RecMII int
	Attempts            []Attempt
	Backtracks          int
}

func (e *NoScheduleError) Error() string {
	last := ""
	if n := len(e.Attempts); n > 0 {
		last = ": " + e.Attempts[n-1].Err
	}
	return fmt.Sprintf("modsched: no schedule up to II=%d (MII=%d, res=%d, rec=%d, %d attempts, %d ejections)%s",
		e.MII+len(e.Attempts)-1, e.MII, e.ResMII, e.RecMII, len(e.Attempts), e.Backtracks, last)
}

// fixedCost makes ejecting a pinned op (|Cand| == 1) effectively forbidden
// in min-conflict selection; an all-pinned conflict set triggers routing
// copy insertion instead.
const fixedCost = 1 << 16

// Solve searches for a minimum-II modulo schedule. On failure it returns a
// *NoScheduleError (or the context's error when cancelled; cancellation is
// checked per II attempt and per backtrack budget slice).
func Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	resMII := p.resMII()
	recMII := p.recMII()
	mii := resMII
	if recMII > mii {
		mii = recMII
	}
	for _, o := range p.Ops {
		if o.Dur > mii {
			mii = o.Dur // a value's lifetime may not exceed II
		}
	}
	if min := p.SubDur + p.CmpDur; min > mii {
		mii = min // control pair: m0 ≥ 0, consume ≤ II-2, back-jump at II-1
	}
	if mii < 2 {
		mii = 2
	}
	maxII := p.MaxII
	if maxII <= 0 {
		maxII = mii + 12
	}
	var attempts []Attempt
	backtracks := 0
	st := newAttempt(p)
	for ii := mii; ii <= maxII; ii++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("modsched: II search cancelled at II=%d: %w", ii, err)
		}
		st.reset(ii)
		sol, a := st.run(ctx)
		attempts = append(attempts, a)
		backtracks += a.Ejections
		if a.Err == "cancelled" {
			return nil, fmt.Errorf("modsched: II=%d attempt cancelled: %w", ii, ctx.Err())
		}
		if sol != nil {
			sol.MII, sol.ResMII, sol.RecMII = mii, resMII, recMII
			sol.Backtracks = backtracks
			sol.Attempts = attempts
			return sol, nil
		}
	}
	return nil, &NoScheduleError{MII: mii, ResMII: resMII, RecMII: recMII, Attempts: attempts, Backtracks: backtracks}
}

func (p *Problem) validate() error {
	if p.NumPEs <= 0 || p.Dist == nil {
		return fmt.Errorf("modsched: composition not described")
	}
	if len(p.Ops) == 0 {
		return fmt.Errorf("modsched: empty loop body")
	}
	for i, o := range p.Ops {
		if o.ID != i {
			return fmt.Errorf("modsched: op %d has ID %d", i, o.ID)
		}
		if len(o.Cand) == 0 {
			return fmt.Errorf("modsched: op %s has no candidate PEs", o.Name)
		}
		if o.Dur <= 0 {
			return fmt.Errorf("modsched: op %s has duration %d", o.Name, o.Dur)
		}
	}
	for _, e := range p.Edges {
		if e.From < 0 || e.From >= len(p.Ops) || e.To < 0 || e.To >= len(p.Ops) {
			return fmt.Errorf("modsched: edge %d→%d out of range", e.From, e.To)
		}
		if e.Dist < 0 {
			return fmt.Errorf("modsched: edge %d→%d has negative distance", e.From, e.To)
		}
	}
	if len(p.SubCand) == 0 || len(p.CmpCand) == 0 {
		return fmt.Errorf("modsched: no candidates for the loop-control pair")
	}
	if p.SubDur <= 0 || p.CmpDur <= 0 {
		return fmt.Errorf("modsched: control durations not set")
	}
	if len(p.MoveCand) == 0 || p.MoveDur <= 0 {
		return fmt.Errorf("modsched: routing-copy description missing")
	}
	return nil
}

// resMII is the resource-constrained II bound: total issue slots demanded
// (body + control pair) over the composition, and per candidate-class
// pressure for ops restricted to a PE subset (DMA loads, pinned writes).
func (p *Problem) resMII() int {
	total := p.SubDur + p.CmpDur
	type class struct {
		cand   []int
		demand int
	}
	var classes []class // a composition has a handful of candidate sets
	for _, o := range p.Ops {
		total += o.Dur
		k := 0
		for k < len(classes) && !slices.Equal(classes[k].cand, o.Cand) {
			k++
		}
		if k == len(classes) {
			classes = append(classes, class{cand: o.Cand})
		}
		classes[k].demand += o.Dur
	}
	mii := ceilDiv(total, p.NumPEs)
	for _, c := range classes {
		if m := ceilDiv(c.demand, len(c.cand)); m > mii {
			mii = m
		}
	}
	return mii
}

// recMII is the recurrence bound: the smallest II for which the dependence
// constraint system issue(To) ≥ issue(From) + Dur(From) - Dist·II has no
// positive cycle (found by binary search with Bellman-Ford style
// relaxation; a circuit forces II ≥ ⌈Σdur/Σdist⌉).
func (p *Problem) recMII() int {
	sum := 0
	for _, o := range p.Ops {
		sum += o.Dur
	}
	lo, hi := 1, sum
	if hi < 1 {
		hi = 1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if p.recFeasible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (p *Problem) recFeasible(ii int) bool {
	n := len(p.Ops)
	t := make([]int, n)
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, e := range p.Edges {
			w := p.Ops[e.From].Dur - e.Dist*ii
			if t[e.From]+w > t[e.To] {
				t[e.To] = t[e.From] + w
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	// One more sweep: still relaxing after n iterations ⇒ positive cycle.
	for _, e := range p.Edges {
		if t[e.From]+p.Ops[e.From].Dur-e.Dist*ii > t[e.To] {
			return false
		}
	}
	return true
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

// attempt is the mutable state of one II attempt. One value serves every II
// of a Solve: reset starts the next attempt in the same buffers.
type attempt struct {
	p    *Problem
	ii   int
	dist []int // [from·NumPEs+to]: Problem.Dist, tabulated once per Solve

	ops   []Op
	edges []Edge
	in    [][]int // edge indices entering each op, ascending
	out   [][]int // edge indices leaving each op, ascending
	adj   []int   // arena the lists of the problem's own ops are cut from
	adj0  []int   // adj before any copy insertion

	time       []int // -1 while unplaced
	pe         []int
	wasEjected []bool
	prevTime   []int
	height     []int

	// The modulo reservation table (package comment): -1 marks a free cell.
	slot    []int // [pe·II+s]
	port    []int // [pe·II+s]
	portRef []int // placed cross-PE reads sharing port's claim
	cbox    []int // [s]

	// Probe scratch. seen[q] == epoch marks q as already in conf.
	seen  []int
	epoch int
	conf  []int // conflict set of the latest probe
	best  []int // findForced's cheapest set so far
	order []int // candidate PEs of the op being placed, see candOrder
	score []int // score[i] is order[i]'s hop count to placed partners

	ejections int
	copies    int
	budget    int
	maxCopies int

	// check is nil outside the package's tests, which use it to compare
	// every probe and every table update against a from-scratch rebuild.
	check *checker
}

// checker is the test-only observer of an attempt.
type checker struct {
	probed  func(st *attempt, op, t, pe int) // after conflicts filled st.conf
	updated func(st *attempt)                // after place, eject, insertCopy
}

// testCheck is nil; the package's tests set it to have every attempt
// observed (Oracle in modsched_test.go).
var testCheck *checker

func newAttempt(p *Problem) *attempt {
	n, npe := len(p.Ops), p.NumPEs
	st := &attempt{p: p, check: testCheck, dist: make([]int, npe*npe)}
	for a := 0; a < npe; a++ {
		for b := 0; b < npe; b++ {
			st.dist[a*npe+b] = p.Dist(a, b)
		}
	}
	st.budget = p.Budget
	if st.budget <= 0 {
		st.budget = 16 + 8*n
	}
	st.maxCopies = p.MaxCopies
	if st.maxCopies <= 0 {
		st.maxCopies = 8 + 4*n
	}
	// Adjacency of the problem's own edges, in edge order, cut from one
	// arena. Copy insertion only ever replaces an entry of an in-list, so
	// reset restores the lists by copying the arena back.
	deg := make([]int, 2*n) // in-degree at [op], out-degree at [n+op]
	for _, e := range p.Edges {
		deg[e.To]++
		deg[n+e.From]++
	}
	st.in, st.out = make([][]int, n), make([][]int, n)
	st.adj = make([]int, 2*len(p.Edges))
	arena := st.adj
	for i := 0; i < n; i++ {
		st.in[i], arena = arena[:0:deg[i]], arena[deg[i]:]
		st.out[i], arena = arena[:0:deg[n+i]], arena[deg[n+i]:]
	}
	for i, e := range p.Edges {
		st.out[e.From] = append(st.out[e.From], i)
		st.in[e.To] = append(st.in[e.To], i)
	}
	st.adj0 = slices.Clone(st.adj)
	return st
}

// reset starts the attempt at ii: the problem's ops and edges without
// copies, nothing placed, empty tables.
func (st *attempt) reset(ii int) {
	p, n := st.p, len(st.p.Ops)
	st.ii = ii
	st.ejections, st.copies = 0, 0
	st.ops = append(st.ops[:0], p.Ops...)
	st.edges = append(st.edges[:0], p.Edges...)
	st.in, st.out = st.in[:n], st.out[:n]
	copy(st.adj, st.adj0)
	st.time = fill(st.time, n, -1)
	st.pe = fill(st.pe, n, -1)
	st.prevTime = fill(st.prevTime, n, -1)
	st.wasEjected = fill(st.wasEjected, n, false)
	st.seen = fill(st.seen, n, 0)
	st.slot = fill(st.slot, p.NumPEs*ii, -1)
	st.port = fill(st.port, p.NumPEs*ii, -1)
	st.portRef = fill(st.portRef, p.NumPEs*ii, 0)
	st.cbox = fill(st.cbox, ii, -1)
	st.heights()
}

// fill returns s resized to n cells, all v.
func fill[T any](s []T, n int, v T) []T {
	s = slices.Grow(s[:0], n)
	for i := 0; i < n; i++ {
		s = append(s, v)
	}
	return s
}

// heights recomputes the height priority after the op set changes (attempt
// start and copy insertion): h(op) = Dur + max over out-edges of
// h(To) - Dist·II, by relaxation (converges when II ≥ RecMII; capped
// defensively).
func (st *attempt) heights() {
	n := len(st.ops)
	st.height = st.height[:0]
	for i := 0; i < n; i++ {
		st.height = append(st.height, st.ops[i].Dur)
	}
	for iter := 0; iter < 2*n+4; iter++ {
		changed := false
		for _, e := range st.edges {
			h := st.ops[e.From].Dur + st.height[e.To] - e.Dist*st.ii
			if h > st.height[e.From] {
				st.height[e.From] = h
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

func (st *attempt) fin(op int) int { return st.time[op] + st.ops[op].Dur - 1 }

// horizon bounds schedule times; exceeding it means the attempt diverged.
func (st *attempt) horizon() int { return st.ii * (len(st.ops) + 4) }

// run executes the placement loop for this II.
func (st *attempt) run(ctx context.Context) (*Solution, Attempt) {
	a := Attempt{II: st.ii}
	fail := func(msg string) (*Solution, Attempt) {
		a.Err = msg
		a.Placed = st.placedCount()
		a.Ejections = st.ejections
		a.Copies = st.copies
		return nil, a
	}
	iter := 0
	for {
		op := st.nextUnplaced()
		if op < 0 {
			break
		}
		if iter%16 == 0 {
			if ctx.Err() != nil {
				return fail("cancelled")
			}
		}
		iter++
		e := st.earliest(op)
		if e > st.horizon() {
			return fail(fmt.Sprintf("op %s pushed past horizon", st.ops[op].Name))
		}
		st.candOrder(op)
		if t, pe, ok := st.findFree(op, e); ok {
			st.place(op, t, pe)
			continue
		}
		// Forced placement: min-conflict over the window, pinned conflicts
		// effectively forbidden.
		t, pe, conf, cost := st.findForced(op, e)
		if cost >= fixedCost {
			// Every slot collides with a pinned op. If the collision is a
			// routing-adjacency violation, a copy op can bridge the hop.
			if ei, ok := st.blockedEdge(op); ok {
				if st.copies >= st.maxCopies {
					return fail("routing-copy budget exhausted")
				}
				st.insertCopy(ei)
				continue
			}
		}
		if len(conf) == 0 {
			return fail(fmt.Sprintf("op %s has no placement", st.ops[op].Name))
		}
		// Ejecting the whole set is what keeps the placed body conflict-free.
		for _, q := range conf {
			st.eject(q)
		}
		st.ejections += len(conf)
		if st.ejections > st.budget {
			return fail("backtrack budget exhausted")
		}
		st.place(op, t, pe)
	}
	// Loop-control pair on top of the placed body.
	m0, psub, pcmp, ok := st.placeControl()
	if !ok {
		return fail("no slot for the loop-control pair")
	}
	a.Placed = st.placedCount()
	a.Ejections = st.ejections
	a.Copies = st.copies
	maxEnd := 0
	for i := range st.ops {
		if end := st.time[i] + st.ops[i].Dur; end > maxEnd {
			maxEnd = end
		}
	}
	return &Solution{
		II:       st.ii,
		Stages:   ceilDiv(maxEnd, st.ii),
		Ops:      st.ops,
		Edges:    st.edges,
		Time:     st.time,
		PE:       st.pe,
		CtrlSlot: m0,
		SubPE:    psub,
		CmpPE:    pcmp,
	}, a
}

func (st *attempt) placedCount() int {
	n := 0
	for _, t := range st.time {
		if t >= 0 {
			n++
		}
	}
	return n
}

// nextUnplaced picks the unplaced op with maximum height (ties: lowest ID).
func (st *attempt) nextUnplaced() int {
	best := -1
	for i := range st.ops {
		if st.time[i] >= 0 {
			continue
		}
		if best < 0 || st.height[i] > st.height[best] {
			best = i
		}
	}
	return best
}

// earliest computes the op's lower time bound from placed neighbors, plus
// Rau's progress rule: after an ejection, re-placement starts strictly
// after the previous time so the search cannot cycle.
func (st *attempt) earliest(op int) int {
	e := 0
	for _, ei := range st.in[op] {
		ed := st.edges[ei]
		if st.time[ed.From] < 0 {
			continue
		}
		if lb := st.fin(ed.From) + 1 - ed.Dist*st.ii; lb > e {
			e = lb
		}
	}
	for _, ei := range st.out[op] {
		ed := st.edges[ei]
		if st.time[ed.To] < 0 {
			continue
		}
		// Lifetime upper bound as a lower bound on the writer's time:
		// issue(To) + Dist·II ≤ fin(op) + II.
		if lb := st.time[ed.To] + ed.Dist*st.ii - st.ii - st.ops[op].Dur + 1; lb > e {
			e = lb
		}
	}
	if st.wasEjected[op] && st.prevTime[op] >= e {
		e = st.prevTime[op] + 1
	}
	return e
}

// candOrder leaves in st.order the op's candidate PEs, adjacency-satisfying
// ones first (fewest total hop count to placed partners), preserving the
// caller's preference order among equals. It is computed once per placement:
// findFree and findForced scan the same order.
func (st *attempt) candOrder(op int) {
	n := st.p.NumPEs
	st.order, st.score = st.order[:0], st.score[:0]
	for _, pe := range st.ops[op].Cand {
		score := 0
		for _, ei := range st.in[op] {
			if w := st.edges[ei].From; st.time[w] >= 0 {
				score += st.dist[st.pe[w]*n+pe]
			}
		}
		for _, ei := range st.out[op] {
			if r := st.edges[ei].To; st.time[r] >= 0 {
				score += st.dist[pe*n+st.pe[r]]
			}
		}
		// Stable insertion by score keeps preference order among equals.
		i := len(st.order)
		st.order, st.score = append(st.order, pe), append(st.score, score)
		for ; i > 0 && st.score[i-1] > score; i-- {
			st.order[i], st.score[i] = st.order[i-1], st.score[i-1]
		}
		st.order[i], st.score[i] = pe, score
	}
}

// findFree scans the II-wide window from e for a conflict-free placement.
func (st *attempt) findFree(op, e int) (int, int, bool) {
	hz := st.horizon()
	for t := e; t < e+st.ii && t <= hz; t++ {
		for _, pe := range st.order {
			if len(st.conflicts(op, t, pe)) == 0 {
				return t, pe, true
			}
		}
	}
	return 0, 0, false
}

// findForced scans the same window for the min-cost conflict set (the first
// one in scan order among equals). The set it returns is valid until the
// next call.
func (st *attempt) findForced(op, e int) (int, int, []int, int) {
	bestCost := int(^uint(0) >> 1)
	var bestT, bestPE int
	st.best = st.best[:0]
	hz := st.horizon()
	for t := e; t < e+st.ii && t <= hz; t++ {
		for _, pe := range st.order {
			cost := 0
			for _, q := range st.conflicts(op, t, pe) {
				if len(st.ops[q].Cand) == 1 {
					cost += fixedCost
				} else {
					cost++
				}
			}
			if cost < bestCost {
				bestCost, bestT, bestPE = cost, t, pe
				st.conf, st.best = st.best, st.conf
			}
		}
	}
	return bestT, bestPE, st.best, bestCost
}

// conflicts lists, in st.conf and in no particular order, the placed ops
// that collide with placing op at (t, pe): dependence-window violations,
// modulo issue-slot overlaps on the PE, routing-output port collisions,
// C-Box port collisions, and routing-adjacency violations. Each colliding
// partner is listed, since ejecting it could re-place it compatibly. The
// slice is valid until the next probe.
//
// Only op's own edges and Dur slots are visited; who holds a slot, a port
// or the C-Box comes from the tables. That finds every collision because
// the placed body has none of its own (the invariant in the package
// comment), so each one involves op: as the writer whose port a placed
// reader would claim, as the reader claiming a placed writer's port, or —
// the one check that involves no table — as the reader of two different
// values from one PE in one slot.
func (st *attempt) conflicts(op, t, pe int) []int {
	st.epoch++
	st.conf = st.conf[:0]
	ii, n := st.ii, st.p.NumPEs
	dur := st.ops[op].Dur
	fin := t + dur - 1
	in := st.in[op]
	for k, ei := range in {
		ed := st.edges[ei]
		w := ed.From
		if st.time[w] < 0 {
			continue
		}
		// fin(W)+1 ≤ issue(R)+Dist·II ≤ fin(W)+II.
		if r, wfin := t+ed.Dist*ii, st.fin(w); r < wfin+1 || r > wfin+ii {
			st.add(w)
		}
		wpe := st.pe[w]
		if wpe == pe {
			continue
		}
		if st.dist[wpe*n+pe] > 1 {
			st.add(w)
		}
		// op's read claims w's output port at op's issue slot.
		if o := st.port[wpe*ii+t%ii]; o >= 0 && o != w {
			st.add(w)
			st.add(o)
		}
		for _, ej := range in[:k] {
			if x := st.edges[ej].From; x != w && st.time[x] >= 0 && st.pe[x] == wpe {
				st.add(w)
				st.add(x)
			}
		}
	}
	for _, ei := range st.out[op] {
		ed := st.edges[ei]
		r := ed.To
		if st.time[r] < 0 {
			continue
		}
		if x := st.time[r] + ed.Dist*ii; x < fin+1 || x > fin+ii {
			st.add(r)
		}
		rpe := st.pe[r]
		if rpe == pe {
			continue
		}
		if st.dist[pe*n+rpe] > 1 {
			st.add(r)
		}
		// r's read claims op's output port at r's issue slot.
		if o := st.port[pe*ii+st.time[r]%ii]; o >= 0 {
			st.add(o)
		}
	}
	for d := 0; d < dur; d++ {
		if q := st.slot[pe*ii+(t+d)%ii]; q >= 0 {
			st.add(q)
		}
	}
	if st.ops[op].UsesCBox {
		if q := st.cbox[fin%ii]; q >= 0 {
			st.add(q)
		}
	}
	if st.check != nil {
		st.check.probed(st, op, t, pe)
	}
	return st.conf
}

func (st *attempt) add(q int) {
	if st.seen[q] != st.epoch {
		st.seen[q] = st.epoch
		st.conf = append(st.conf, q)
	}
}

// blockedEdge finds a dependence edge of op whose placed partner is
// unreachable (hop distance > 1) from every candidate PE of op — the
// signature of a topology block that a routing copy resolves. Edges whose
// partner is pinned are preferred (ejecting it can never help).
func (st *attempt) blockedEdge(op int) (int, bool) {
	n := st.p.NumPEs
	// hops is the routing distance of edge ei with op on pe.
	hops := func(ei, partner, pe int) int {
		if st.edges[ei].To == op {
			return st.dist[st.pe[partner]*n+pe]
		}
		return st.dist[pe*n+st.pe[partner]]
	}
	best, bestPinned := -1, false
	consider := func(ei int, partner int) {
		for _, pe := range st.ops[op].Cand {
			if hops(ei, partner, pe) <= 1 {
				return
			}
		}
		pinned := len(st.ops[partner].Cand) == 1
		if best < 0 || (pinned && !bestPinned) {
			best, bestPinned = ei, pinned
		}
	}
	for _, ei := range st.in[op] {
		if st.time[st.edges[ei].From] >= 0 {
			consider(ei, st.edges[ei].From)
		}
	}
	for _, ei := range st.out[op] {
		if st.time[st.edges[ei].To] >= 0 {
			consider(ei, st.edges[ei].To)
		}
	}
	if best >= 0 {
		return best, true
	}
	// Fall back to any edge towards a pinned partner that at least one
	// candidate cannot reach: pressure cases where the only in-reach
	// candidate is saturated by pinned ops.
	check := func(ei int, partner int) {
		if len(st.ops[partner].Cand) != 1 {
			return
		}
		for _, pe := range st.ops[op].Cand {
			if hops(ei, partner, pe) > 1 && best < 0 {
				best = ei
			}
		}
	}
	for _, ei := range st.in[op] {
		if st.time[st.edges[ei].From] >= 0 {
			check(ei, st.edges[ei].From)
		}
	}
	for _, ei := range st.out[op] {
		if st.time[st.edges[ei].To] >= 0 {
			check(ei, st.edges[ei].To)
		}
	}
	return best, best >= 0
}

// insertCopy splits edge ei (W→R, distance D) into W→C (distance D) and
// C→R (distance 0) with a fresh MOVE op C that may live on any
// move-capable PE. The consumer-side values and timings re-derive from the
// updated edge set on subsequent placements.
func (st *attempt) insertCopy(ei int) {
	ed := st.edges[ei]
	// The reader's prior placement may be invalid relative to the copy;
	// eject it so both re-place against the new edge — first, so that its
	// reservations are released over the edges they were made over. This
	// is a graph repair, not a backtrack: the progress rule stays off so
	// the reader may return to its old time.
	if st.time[ed.To] >= 0 {
		st.eject(ed.To)
		st.wasEjected[ed.To] = false
	}
	c := Op{
		ID:     len(st.ops),
		Name:   fmt.Sprintf("copy(%s→%s)", st.ops[ed.From].Name, st.ops[ed.To].Name),
		Dur:    st.p.MoveDur,
		Cand:   st.p.MoveCand,
		CopyOf: ed.From,
	}
	ej := len(st.edges)
	st.ops = append(st.ops, c)
	st.edges[ei] = Edge{From: ed.From, To: c.ID, Dist: ed.Dist}
	st.edges = append(st.edges, Edge{From: c.ID, To: ed.To, Dist: 0})
	st.copies++
	// Adjacency stays in ascending edge order: ei moves from R's in-list
	// to C's, and ej, the highest index, goes last in R's.
	rin := st.in[ed.To]
	k := slices.Index(rin, ei)
	copy(rin[k:], rin[k+1:])
	rin[len(rin)-1] = ej
	st.in = append(st.in, []int{ei})
	st.out = append(st.out, []int{ej})
	st.time = append(st.time, -1)
	st.pe = append(st.pe, -1)
	st.prevTime = append(st.prevTime, -1)
	st.wasEjected = append(st.wasEjected, false)
	st.seen = append(st.seen, 0)
	st.heights()
	if st.check != nil {
		st.check.updated(st)
	}
}

func (st *attempt) place(op, t, pe int) {
	st.time[op] = t
	st.pe[op] = pe
	st.reserve(op, true)
	if st.check != nil {
		st.check.updated(st)
	}
}

func (st *attempt) eject(op int) {
	st.reserve(op, false)
	st.prevTime[op] = st.time[op]
	st.wasEjected[op] = true
	st.time[op] = -1
	st.pe[op] = -1
	if st.check != nil {
		st.check.updated(st)
	}
}

// reserve enters (take) or removes placed op's reservations: its issue
// slots, its C-Box slot, and one port claim per edge to a placed partner on
// another PE — on op's port for its readers, on the producer's port for its
// own reads. It is the only writer of the tables.
func (st *attempt) reserve(op int, take bool) {
	ii := st.ii
	t, pe := st.time[op], st.pe[op]
	owner := -1
	if take {
		owner = op
	}
	for d := 0; d < st.ops[op].Dur; d++ {
		st.slot[pe*ii+(t+d)%ii] = owner
	}
	if st.ops[op].UsesCBox {
		st.cbox[st.fin(op)%ii] = owner
	}
	for _, ei := range st.in[op] {
		if w := st.edges[ei].From; st.time[w] >= 0 && st.pe[w] != pe {
			st.claim(st.pe[w]*ii+t%ii, w, take)
		}
	}
	for _, ei := range st.out[op] {
		if r := st.edges[ei].To; st.time[r] >= 0 && st.pe[r] != pe {
			st.claim(pe*ii+st.time[r]%ii, op, take)
		}
	}
}

// claim adds or drops one reader's share of port cell, which carries w's
// value.
func (st *attempt) claim(cell, w int, take bool) {
	if take {
		st.port[cell] = w
		st.portRef[cell]++
	} else if st.portRef[cell]--; st.portRef[cell] == 0 {
		st.port[cell] = -1
	}
}

// placeControl finds kernel slot m0 and an adjacent (SubPE, CmpPE) pair for
// the loop counter decrement and exit compare, avoiding body issue slots,
// routing-port reservations, and the C-Box port.
func (st *attempt) placeControl() (m0, psub, pcmp int, ok bool) {
	ii, n := st.ii, st.p.NumPEs
	busy := func(pe, slot, dur int) bool {
		for k := 0; k < dur; k++ {
			if st.slot[pe*ii+(slot+k)%ii] >= 0 {
				return true
			}
		}
		return false
	}
	hiSub := ii - st.p.SubDur
	hiCmp := ii - 1 - st.p.CmpDur
	for m := 0; m <= hiSub && m <= hiCmp; m++ {
		if st.cbox[m+st.p.CmpDur-1] >= 0 {
			continue
		}
		for _, ps := range st.p.SubCand {
			if busy(ps, m, st.p.SubDur) || st.port[ps*ii+m] >= 0 {
				continue
			}
			for _, pc := range st.p.CmpCand {
				if pc == ps || st.dist[ps*n+pc] != 1 {
					continue
				}
				if busy(pc, m, st.p.CmpDur) {
					continue
				}
				return m, ps, pc, true
			}
		}
	}
	return 0, 0, 0, false
}
