package sched

import (
	"fmt"
	"slices"
	"sort"

	"cgra/internal/arch"
	"cgra/internal/cdfg"
)

// blockState carries the per-block list-scheduling context. Per-node block
// state (priority, dependency counter, successors) lives in nodeState.
type blockState struct {
	start, maxEnd int
	// remaining counts the block's unscheduled nodes.
	remaining int
	// ready holds the candidates of the current time step: the unscheduled
	// nodes whose strict dependencies have all issued, by (priority desc,
	// ID asc). It is fixed when the step starts.
	ready []candidate
	// released collects the nodes whose last strict dependency issues
	// during the step; they become candidates when the next one starts.
	released []candidate
	// spare is the buffer the next ready list is merged into.
	spare []candidate
	// conds are the conditions the block's nodes and exit use; succArena
	// backs the nodes' successor lists.
	conds     []*cdfg.CondExpr
	succArena []*cdfg.Node
}

// block schedules one straight-line block with the time-stepped list
// scheduler (Algorithm 1) and returns the first cycle after it.
func (s *scheduler) block(blk *cdfg.Block, start int) (int, error) {
	if blk == nil || (len(blk.Nodes) == 0 && blk.Cond == nil) {
		return start, nil
	}
	bs := &s.blk
	bs.start, bs.maxEnd, bs.remaining = start, start, len(blk.Nodes)
	bs.ready, bs.released, bs.conds = bs.ready[:0], bs.released[:0], bs.conds[:0]
	// Register conditions and predicates used by this block with the
	// C-Box planner, and serialize each condition's status consumption.
	addCond := func(c *cdfg.CondExpr) {
		if !slices.Contains(bs.conds, c) {
			bs.conds = append(bs.conds, c)
		}
	}
	if blk.Cond != nil {
		addCond(blk.Cond)
	}
	for _, n := range blk.Nodes {
		for p := n.Pred; p != nil; p = p.Parent {
			addCond(p.Cond)
		}
	}
	for _, c := range bs.conds {
		s.prepareCond(c)
	}
	for _, n := range blk.Nodes {
		if n.Pred != nil {
			s.preparePred(n.Pred)
		}
	}
	for _, c := range bs.conds {
		leaves := c.Leaves(s.depBuf[:0])
		for i := 1; i < len(leaves); i++ {
			if st := s.st(leaves[i]); st.block == blk.ID {
				st.chain = append(st.chain, leaves[i-1])
			}
		}
		s.depBuf = leaves
	}
	s.linkDependencies(blk)
	s.computePriorities(blk)
	for _, n := range blk.Nodes {
		if st := s.st(n); st.waiting == 0 {
			bs.released = append(bs.released, candidate{n, st.prio})
		}
	}
	if !s.opts.NoFusing {
		for _, n := range blk.Nodes {
			if n.Kind == cdfg.KPWrite && n.AliasOf != nil && n.Pred == nil {
				if prod := s.st(n.AliasOf); prod.block == blk.ID && prod.fusable == nil {
					prod.fusable = n
				}
			}
		}
	}

	t := start
	for bs.remaining > 0 {
		// Cooperative cancellation: one check per time step bounds the
		// reaction time to a deadline by a single candidate sweep.
		if err := s.ctx.Err(); err != nil {
			return 0, fmt.Errorf("sched: scheduling cancelled at cycle %d: %w", t, err)
		}
		if t-start > s.opts.MaxCycles {
			var stuck []string
			for _, n := range blk.Nodes {
				if s.st(n).issue < 0 {
					stuck = append(stuck, fmt.Sprintf("%s [%s]", n, s.stallReason(n, t)))
				}
			}
			sort.Strings(stuck)
			return 0, fmt.Errorf("block %d: exceeded %d cycles (scheduling livelock?); unscheduled: %v",
				blk.ID, s.opts.MaxCycles, stuck)
		}
		for _, c := range s.candidates() {
			n := c.node
			st := s.st(n)
			if st.issue >= 0 {
				continue // fused along with its producer this cycle
			}
			if st.ready > t {
				continue
			}
			if !s.weakOK(n, t) {
				continue
			}
			var err error
			if n.Kind == cdfg.KPWrite {
				err = s.schedPWrite(n, t)
			} else {
				err = s.schedOp(n, t)
			}
			if err != nil {
				return 0, err
			}
		}
		s.processPending()
		t++
	}
	s.processPending()
	return maxInt(bs.maxEnd, start), nil
}

// strictDeps appends n's strict dependencies to buf: explicit prereqs, data
// producers, and the C-Box status chain.
func (s *scheduler) strictDeps(buf []*cdfg.Node, n *cdfg.Node) []*cdfg.Node {
	buf = append(buf, n.Prereqs...)
	for _, a := range n.Args {
		if a.Kind == cdfg.FromNode {
			buf = append(buf, a.Node)
		}
	}
	return append(buf, s.st(n).chain...)
}

// linkDependencies sets up, for every node of blk, the count of strict
// dependencies still to issue, the ready cycle the issued ones allow, and
// the successor lists through which issuing a node releases its dependents.
func (s *scheduler) linkDependencies(blk *cdfg.Block) {
	bs := &s.blk
	// A dependency releases its dependents when it issues if it is a node
	// of this block. Nodes of earlier blocks have issued; one outside the
	// block that has not never will, and its dependents stay stuck.
	inBlock := func(d *cdfg.Node) bool { return s.st(d).block == blk.ID }
	edges := 0
	for _, n := range blk.Nodes {
		st := s.st(n)
		st.ready = bs.start
		s.depBuf = s.strictDeps(s.depBuf[:0], n)
		for _, d := range s.depBuf {
			switch ds := s.st(d); {
			case ds.issue < 0:
				st.waiting++
				if inBlock(d) {
					s.counts[d.ID]++
					edges++
				}
			case ds.finish+1 > st.ready:
				st.ready = ds.finish + 1
			}
		}
	}
	// Successor lists are sub-slices of one arena, cut by the counts.
	if cap(bs.succArena) < edges {
		bs.succArena = make([]*cdfg.Node, edges)
	}
	arena := bs.succArena[:edges]
	for _, n := range blk.Nodes {
		k := s.counts[n.ID]
		s.st(n).succs, arena = arena[:0:k], arena[k:]
		s.counts[n.ID] = 0
	}
	for _, n := range blk.Nodes {
		s.depBuf = s.strictDeps(s.depBuf[:0], n)
		for _, d := range s.depBuf {
			if ds := s.st(d); ds.issue < 0 && inBlock(d) {
				ds.succs = append(ds.succs, n)
			}
		}
	}
}

// issued records that n occupies its PE from cycle t through finish and
// releases the nodes that were waiting for it.
func (s *scheduler) issued(n *cdfg.Node, t, finish int) {
	bs := &s.blk
	st := s.st(n)
	st.issue, st.finish = t, finish
	bs.remaining--
	if finish+1 > bs.maxEnd {
		bs.maxEnd = finish + 1
	}
	for _, m := range st.succs {
		ms := s.st(m)
		if finish+1 > ms.ready {
			ms.ready = finish + 1
		}
		if ms.waiting--; ms.waiting == 0 {
			bs.released = append(bs.released, candidate{m, ms.prio})
		}
	}
}

// computePriorities assigns each node its longest-path weight to any sink
// (§V-F: "the longest path weight is currently used as the priority
// criterion"). Durations use the slowest implementation among supporting
// PEs, a safe critical-path estimate on inhomogeneous arrays.
func (s *scheduler) computePriorities(blk *cdfg.Block) {
	// blk.Nodes is topologically ordered (builders append dependencies
	// first), so one reverse sweep suffices.
	for i := len(blk.Nodes) - 1; i >= 0; i-- {
		st := s.st(blk.Nodes[i])
		best := 0
		for _, m := range st.succs {
			if p := s.st(m).prio; p > best {
				best = p
			}
		}
		st.prio = s.repDur[blk.Nodes[i].Op] + best
	}
}

// candidate is a node of the ready list with its priority.
type candidate struct {
	node *cdfg.Node
	prio int
}

// compareCandidates orders by decreasing priority, ties by node ID for
// determinism.
func compareCandidates(a, b candidate) int {
	if a.prio != b.prio {
		return b.prio - a.prio
	}
	return a.node.ID - b.node.ID
}

// candidates returns the nodes that may issue in the time step that starts
// now: the unscheduled nodes whose strict dependencies have all issued, in
// compareCandidates order. The set is fixed here; a node released during the
// step waits for the next one. Last step's survivors are already in order,
// so only the newly released nodes are sorted and the two lists merged. The
// returned slice is only valid until the next call.
func (s *scheduler) candidates() []candidate {
	bs := &s.blk
	slices.SortFunc(bs.released, compareCandidates)
	out := bs.spare[:0]
	old, fresh := bs.ready, bs.released
	for len(old) > 0 || len(fresh) > 0 {
		var c candidate
		if len(fresh) == 0 || (len(old) > 0 && compareCandidates(old[0], fresh[0]) < 0) {
			c, old = old[0], old[1:]
		} else {
			c, fresh = fresh[0], fresh[1:]
		}
		// A pWRITE fused into its producer issues with it, possibly
		// before the producer releases it.
		if s.st(c.node).issue < 0 {
			out = append(out, c)
		}
	}
	bs.spare, bs.ready, bs.released = bs.ready[:0], out, bs.released[:0]
	return out
}

// weakOK checks write-after-read ordering: every weak predecessor must have
// issued no later than t.
func (s *scheduler) weakOK(n *cdfg.Node, t int) bool {
	for _, d := range n.WeakPrereqs {
		if iss := s.st(d).issue; iss < 0 || iss > t {
			return false
		}
	}
	return true
}

// consumersIssuedBy checks that every value consumer of the producer whose
// write was fused into local's home slot has issued by the given cycle; a
// later overwrite of the slot would otherwise feed them the wrong value.
// self (the overwriting node) is exempt: it reads the slot in the cycle it
// overwrites it, which the register file permits.
func (s *scheduler) consumersIssuedBy(local *cdfg.Local, cycle int, self *cdfg.Node) bool {
	l := s.local(local)
	if l.fusedProd == nil {
		return true
	}
	for _, c := range s.st(l.fusedProd).consumers {
		if c == self {
			continue
		}
		if iss := s.st(c).issue; iss < 0 || iss > cycle {
			return false
		}
	}
	return true
}

// stallReason explains (for livelock diagnostics) why node n cannot issue
// at cycle t.
func (s *scheduler) stallReason(n *cdfg.Node, t int) string {
	for _, d := range s.strictDeps(nil, n) {
		if s.st(d).issue < 0 {
			return fmt.Sprintf("strict dep n%d unscheduled", d.ID)
		}
	}
	if r := s.st(n).ready; r > t {
		return fmt.Sprintf("not ready before cycle %d", r)
	}
	if !s.weakOK(n, t) {
		return "weak (WAR) predecessor unscheduled"
	}
	if n.Pred != nil {
		if _, ok := s.predSlotReady(n.Pred, t); !ok {
			return fmt.Sprintf("predicate p%d slot not ready", n.Pred.ID)
		}
	}
	if n.Kind == cdfg.KPWrite {
		if home := s.home(n.Local); home != nil {
			if !s.consumersIssuedBy(n.Local, t, n) {
				return fmt.Sprintf("consumers of fused producer of %q pending", n.Local.Name)
			}
			if _, ok := s.operandAccessible(n.Args[0], home.PE, t); !ok {
				return fmt.Sprintf("operand %v inaccessible on home PE %d", n.Args[0], home.PE)
			}
		}
		return "home/resources"
	}
	return "resources"
}

// reject records one scheduling rejection in the opt-in explain log. The
// node-name formatting only runs when a log is attached.
func (s *scheduler) reject(n *cdfg.Node, t int, cause RejectCause) {
	if s.opts.Explain == nil {
		return
	}
	s.opts.Explain.Add(t, n.String(), cause)
}

// schedOp tries to schedule a KOp node at cycle t. A node left unissued is
// tried again next step (resources or operands unavailable; provisioning may
// have been started).
func (s *scheduler) schedOp(n *cdfg.Node, t int) error {
	op := n.Op
	role := s.st(n).role
	// Predication gating for DMA operations.
	var predSlot *Slot
	if n.IsDMA() && n.Pred != nil {
		slot, ok := s.predSlotReady(n.Pred, t)
		if !ok || !s.predGateOK(t, slot) {
			s.reject(n, t, RejectPredication)
			return nil
		}
		predSlot = slot
	}
	pes := s.candidatePEs(n, op)
	if len(pes) == 0 {
		s.reject(n, t, RejectNoSupportingPE)
		return fmt.Errorf("no PE supports %v (node %s)", op, n)
	}
	// Pass 1: a PE where all operands are accessible right now.
	sawFree := false
	cboxBlocked, loopBlocked := false, false
	for _, p := range pes {
		dur := s.duration(p, op)
		if !s.peFree(p, t, dur) {
			continue
		}
		sawFree = true
		// The status bit of a compare reaches the C-Box in the op's
		// final cycle; the C-Box must be free then and the stored
		// partial condition must already be available (§IV-A2).
		if n.IsCompare() && role != nil {
			finish := t + dur - 1
			if at(s.cboxBusy, finish) || !s.cmpStoredReady(role, finish) {
				cboxBlocked = true
				continue
			}
		}
		srcs, ok := s.argsAccessible(n, p, t)
		if !ok {
			if s.constBlockedBySafeFloor(n, p, t) {
				loopBlocked = true
			}
			continue
		}
		s.emitNode(n, p, t, dur, srcs, predSlot)
		return nil
	}
	switch {
	case !sawFree:
		s.reject(n, t, RejectPEBusy)
	case cboxBlocked:
		s.reject(n, t, RejectCBoxSaturation)
	case loopBlocked:
		s.reject(n, t, RejectLoopIncompatibility)
	default:
		s.reject(n, t, RejectRouting)
	}
	// Pass 2: provision operands toward the most attractive compatible PE
	// and delay the node (§V-F plan-candidate: values are copied, before
	// the current time step when resources allow). Only provision when a
	// compatible PE was actually free — otherwise the stall is transient.
	if sawFree {
		target := pes[0]
		// With two or more operands, distance-1 sources can conflict
		// on the source PE's single routing output indefinitely (both
		// values living on the same neighbour); force the copies onto
		// the target PE itself in that case.
		force := len(n.Args) >= 2
		for _, a := range n.Args {
			s.provisionOperand(a, target, force)
		}
	}
	return nil
}

// constBlockedBySafeFloor reports whether an operand of n is a constant
// that could not be materialized on p solely because no free cycle exists
// between the current region's safe floor and t — the signature of a loop
// or branch boundary blocking placement (explain-log classification only).
func (s *scheduler) constBlockedBySafeFloor(n *cdfg.Node, p, t int) bool {
	if s.opts.Explain == nil {
		return false
	}
	for _, a := range n.Args {
		if a.Kind != cdfg.FromConst || !s.supports(p, arch.CONST) {
			continue
		}
		reachable := false
		for _, v := range s.sourcesOf(a) {
			if v.Def < t && s.rt.Dist(v.PE, p) <= 1 {
				reachable = true
				break
			}
		}
		if !reachable && s.earliestFree(p, s.safeFloor, 1) >= t {
			return true
		}
	}
	return false
}

// emitNode finalizes the placement of a KOp node.
func (s *scheduler) emitNode(n *cdfg.Node, p, t, dur int, srcs []Src, predSlot *Slot) {
	finish := t + dur - 1
	op := &Op{
		PE:    p,
		Cycle: t,
		Dur:   dur,
		Code:  n.Op,
		Node:  n,
		Array: n.Array,
		Imm:   n.Const,
	}
	if len(srcs) > 0 {
		op.A = srcs[0]
	}
	if len(srcs) > 1 {
		op.B = srcs[1]
	}
	if predSlot != nil {
		op.PredSlot = predSlot
		s.gatePred(t, predSlot)
	}
	// Destination value.
	st := s.st(n)
	if n.ProducesValue() {
		if pw := st.fusable; pw != nil && s.tryFuse(pw, n, p, finish) {
			home := s.homeValue(pw.Local, p)
			op.Dest = home
			st.val = home
			s.st(pw).val = home
			s.issued(pw, t, finish)
			l := s.local(pw.Local)
			l.copies, l.fusedProd = nil, n
			s.sch.Stats.FusedPWrites++
			if pw.Pred != nil {
				panic("fused a predicated pWRITE") // guarded by construction
			}
		} else {
			v := s.newValue(p, finish)
			op.Dest = v
			st.val = v
		}
	}
	s.issued(n, t, finish)
	s.emit(op)
	s.sch.Stats.Nodes++
	if n.IsCompare() {
		// The status bit reaches the C-Box in the op's final cycle.
		if err := s.emitCompare(n, p, finish); err != nil {
			panic(err) // cbox availability was checked above
		}
	}
	s.bumpAttraction(n, p)
}

// tryFuse decides whether pWRITE pw may fold into producer n placed on PE p
// finishing at cycle `finish` (§V-E): the variable's home must be p (or
// still unassigned), all of pw's ordering predecessors must be satisfied at
// the commit cycle, and no consumer-of-overwritten-value hazard may exist.
func (s *scheduler) tryFuse(pw, n *cdfg.Node, p, finish int) bool {
	if s.opts.NoFusing || pw.Pred != nil {
		return false
	}
	if home := s.home(pw.Local); home != nil && home.PE != p {
		return false
	}
	for _, d := range pw.Prereqs {
		if d == n {
			continue
		}
		if ds := s.st(d); ds.issue < 0 || ds.finish+1 > finish {
			return false
		}
	}
	for _, d := range pw.WeakPrereqs {
		if iss := s.st(d).issue; iss < 0 || iss > finish {
			return false
		}
	}
	if !s.consumersIssuedBy(pw.Local, finish, pw) {
		return false
	}
	return true
}

// schedPWrite schedules an unfused pWRITE as a MOVE/CONST on the variable's
// home PE, predicated when control flow requires it.
func (s *scheduler) schedPWrite(n *cdfg.Node, t int) error {
	arg := n.Args[0]
	// Home assignment: prefer the PE that can provide the value (§V-D).
	home := s.home(n.Local)
	if home == nil {
		home = s.homeValue(n.Local, s.pickHomePE(arg))
	}
	p := home.PE
	code := arch.MOVE
	if arg.Kind == cdfg.FromConst {
		code = arch.CONST
	}
	if !s.supports(p, code) {
		return fmt.Errorf("home PE %d of %q lacks %v", p, n.Local.Name, code)
	}
	dur := s.duration(p, code)
	if !s.peFree(p, t, dur) {
		s.reject(n, t, RejectPEBusy)
		return nil
	}
	if !s.consumersIssuedBy(n.Local, t, n) {
		s.reject(n, t, RejectWARHazard)
		return nil
	}
	var predSlot *Slot
	if n.Pred != nil {
		slot, ready := s.predSlotReady(n.Pred, t)
		if !ready || !s.predGateOK(t, slot) {
			s.reject(n, t, RejectPredication)
			return nil
		}
		predSlot = slot
	}
	var src Src
	if code == arch.MOVE {
		var ok bool
		if src, ok = s.operandAccessible(arg, p, t); !ok {
			s.reject(n, t, RejectRouting)
			s.provisionOperand(arg, p, false)
			return nil
		}
	}
	if predSlot != nil {
		s.gatePred(t, predSlot)
	}
	s.st(n).val = home
	s.issued(n, t, t+dur-1)
	l := s.local(n.Local)
	l.copies, l.fusedProd = nil, nil
	s.emit(&Op{
		PE: p, Cycle: t, Dur: dur, Code: code, Node: n,
		A: src, Dest: home, PredSlot: predSlot, Imm: arg.Const,
	})
	s.sch.Stats.Nodes++
	s.sch.Stats.UnfusedPWrites++
	s.bumpAttraction(n, p)
	return nil
}

// pickHomePE chooses a home PE for a local whose first access is a write.
func (s *scheduler) pickHomePE(arg cdfg.Operand) int {
	switch arg.Kind {
	case cdfg.FromNode:
		if v := s.st(arg.Node).val; v != nil {
			return v.PE
		}
	case cdfg.FromLocal:
		if h := s.home(arg.Local); h != nil {
			return h.PE
		}
	}
	// Fall back to the best-connected PE.
	best, bestDeg := 0, -1
	for i, d := range s.degree {
		if d > bestDeg {
			best, bestDeg = i, d
		}
	}
	return best
}

// bumpAttraction raises the attraction of n's value consumers toward every
// PE that can access p's register file (§V-G).
func (s *scheduler) bumpAttraction(n *cdfg.Node, p int) {
	if s.opts.NoAttraction {
		return
	}
	numPEs := len(s.degree)
	for _, succ := range s.st(n).consumers {
		row := s.attraction[succ.ID*numPEs : (succ.ID+1)*numPEs]
		for _, q := range s.readers[p] {
			row[q]++
		}
	}
}

// peKey is what candidatePEs sorts by.
type peKey struct{ score, degree, pe int }

func comparePEKeys(a, b peKey) int {
	if a.score != b.score {
		return b.score - a.score
	}
	if a.degree != b.degree {
		return b.degree - a.degree
	}
	return a.pe - b.pe
}

// candidatePEs orders the PEs able to execute op by decreasing attraction,
// breaking ties toward better-connected PEs (§V-G). A PE's score is its
// attraction plus 2 for every operand instance in its own register file and
// 1 for every instance one hop away; it is computed once per call. The
// returned slice is only valid until the next call.
func (s *scheduler) candidatePEs(n *cdfg.Node, op arch.OpCode) []int {
	pes := s.supp[op]
	if s.opts.NoAttraction {
		return pes
	}
	numPEs := len(s.degree)
	scores := s.scores
	copy(scores, s.attraction[n.ID*numPEs:(n.ID+1)*numPEs])
	for _, a := range n.Args {
		for _, v := range s.sourcesOf(a) {
			for _, q := range pes {
				switch s.rt.Dist(v.PE, q) {
				case 0:
					scores[q] += 2
				case 1:
					scores[q]++
				}
			}
		}
	}
	keys := s.peKeys[:0]
	for _, q := range pes {
		keys = append(keys, peKey{scores[q], s.degree[q], q})
	}
	slices.SortFunc(keys, comparePEKeys)
	order := s.peOrder[:0]
	for _, k := range keys {
		order = append(order, k.pe)
	}
	s.peKeys, s.peOrder = keys, order
	return order
}

// argsAccessible resolves all operands of n for execution on p at t. The
// returned slice is only valid until the next call.
func (s *scheduler) argsAccessible(n *cdfg.Node, p, t int) ([]Src, bool) {
	srcs := s.argSrcs[:0]
	for _, a := range n.Args {
		src, ok := s.operandAccessible(a, p, t)
		if !ok {
			return nil, false
		}
		srcs = append(srcs, src)
	}
	s.argSrcs = srcs
	// Two routed operands from the same neighbour carrying different
	// values would need two outl values in one cycle: reject.
	for i := 0; i < len(srcs); i++ {
		for j := i + 1; j < len(srcs); j++ {
			if srcs[i].Kind == SrcRoute && srcs[j].Kind == SrcRoute &&
				srcs[i].FromPE == srcs[j].FromPE && srcs[i].Val != srcs[j].Val {
				return nil, false
			}
		}
	}
	return srcs, true
}

// operandAccessible finds a way to read operand a on PE p at cycle t without
// inserting new operations (except immediate constant materialization into a
// free earlier cycle of p itself).
func (s *scheduler) operandAccessible(a cdfg.Operand, p, t int) (Src, bool) {
	// Live-in locals are homed at their first requiring PE (§V-D).
	if a.Kind == cdfg.FromLocal && s.home(a.Local) == nil {
		h := s.homeValue(a.Local, p)
		return Src{Kind: SrcReg, Val: h}, true
	}
	var routed Src
	for _, v := range s.sourcesOf(a) {
		if v.Def >= t {
			continue // not yet written
		}
		switch s.rt.Dist(v.PE, p) {
		case 0:
			return Src{Kind: SrcReg, Val: v}, true
		case 1:
			if routed.Kind == SrcNone && s.outlAvailable(v.PE, t, v) {
				routed = Src{Kind: SrcRoute, Val: v, FromPE: v.PE}
			}
		}
	}
	if routed.Kind != SrcNone {
		return routed, true
	}
	// Constants can be materialized into an earlier free cycle of p.
	if a.Kind == cdfg.FromConst && s.supports(p, arch.CONST) {
		e := s.earliestFree(p, s.safeFloor, 1)
		if e < t {
			v := s.materializeConst(a.Const, p, e)
			return Src{Kind: SrcReg, Val: v}, true
		}
	}
	return Src{}, false
}

// provisionOperand starts making operand a accessible on PE p: materialize a
// constant or copy the value along a shortest path (§V-F/G). Idempotent:
// in-flight copies registered earlier are found as sources and nothing new
// is scheduled. With force, only a distance-0 instance counts as available
// (used to break routing-output conflicts between operands).
func (s *scheduler) provisionOperand(a cdfg.Operand, p int, force bool) {
	// Already available or in flight?
	maxDist := 1
	if force {
		maxDist = 0
	}
	for _, v := range s.sourcesOf(a) {
		if s.rt.Dist(v.PE, p) <= maxDist {
			return
		}
	}
	if a.Kind == cdfg.FromConst {
		if s.supports(p, arch.CONST) {
			e := s.earliestFree(p, s.safeFloor, 1)
			s.materializeConst(a.Const, p, e)
		}
		return
	}
	if a.Kind == cdfg.FromLocal && s.home(a.Local) == nil {
		s.homeValue(a.Local, p)
		return
	}
	sources := s.sourcesOf(a)
	if len(sources) == 0 {
		return // producer not scheduled yet; dependency handling retries
	}
	best := sources[0]
	for _, v := range sources {
		if s.rt.Dist(v.PE, p) < s.rt.Dist(best.PE, p) {
			best = v
		}
	}
	path, err := s.rt.Path(best.PE, p)
	if err != nil {
		return
	}
	prev := best
	ready := best.Def + 1
	// A copy serving a versioned local read must not start before the
	// pending writers have committed: home slots are pinned (Def -1), so
	// without this a copy could capture the stale pre-write value.
	if a.Kind == cdfg.FromLocal {
		for _, w := range a.Version {
			ws := s.st(w)
			if ws.issue < 0 {
				return // writer not scheduled yet; retry later
			}
			if ws.finish+1 > ready {
				ready = ws.finish + 1
			}
		}
	}
	for _, hop := range path[1:] {
		if !s.supports(hop, arch.MOVE) {
			return // cannot route through this PE; give up this path
		}
		prev = s.copyHop(prev, hop, maxInt(ready, s.safeFloor))
		s.registerCopy(a, prev)
		ready = prev.Def + 1
	}
}

// copyHop emits one MOVE of prev onto its neighbour hop, in the first cycle
// from ready where hop is free and prev's routing output can carry prev,
// and returns the copy.
func (s *scheduler) copyHop(prev *Value, hop, ready int) *Value {
	e := ready
	for {
		e = s.earliestFree(hop, e, 1)
		if s.outlAvailable(prev.PE, e, prev) {
			break
		}
		e++
	}
	dst := s.newValue(hop, e)
	s.emit(&Op{
		PE: hop, Cycle: e, Dur: 1, Code: arch.MOVE,
		A:    Src{Kind: SrcRoute, Val: prev, FromPE: prev.PE},
		Dest: dst,
	})
	s.sch.Stats.CopiesInserted++
	return dst
}

// materializeConst emits CONST #val on PE p at cycle e and registers the
// copy for reuse, in place of an older one on the same PE.
func (s *scheduler) materializeConst(val int32, p, e int) *Value {
	v := s.newValue(p, e)
	v.Pinned = true
	list := s.consts[val]
	if i := slices.IndexFunc(list, func(o *Value) bool { return o.PE == p }); i >= 0 {
		list = slices.Delete(list, i, i+1)
	}
	s.consts[val] = append(list, v)
	s.emit(&Op{PE: p, Cycle: e, Dur: 1, Code: arch.CONST, Imm: val, Dest: v})
	s.sch.Stats.ConstsMaterialized++
	return v
}

// registerCopy records a routing copy for reuse by later consumers, unless
// its PE already holds one.
func (s *scheduler) registerCopy(a cdfg.Operand, v *Value) {
	switch a.Kind {
	case cdfg.FromConst:
		v.Pinned = true
		s.consts[a.Const] = addCopy(s.consts[a.Const], v)
	case cdfg.FromLocal:
		v.Local = a.Local.Name
		l := s.local(a.Local)
		l.copies = addCopy(l.copies, v)
	case cdfg.FromNode:
		st := s.st(a.Node)
		st.copies = addCopy(st.copies, v)
	}
}
