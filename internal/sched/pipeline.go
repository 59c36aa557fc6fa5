package sched

import (
	"context"
	"errors"
	"fmt"

	"cgra/internal/arch"
	"cgra/internal/cdfg"
	"cgra/internal/modsched"
)

// This file realizes modulo-scheduled (software-pipelined) loops. The modulo
// backend hands eligible innermost counted loops to internal/modsched and
// lays the solution out as contexts:
//
//	SETUP:    trip-count computation K = T-(S-1), guard jump to the
//	          sequential fallback when K < 1, pass-counter init, and
//	          dist-0 copies of loop-invariant operands and constants
//	P0..K0-1: prologue — the first S-1 iterations' leading stages
//	K0..K0+II-1: kernel — one context per slot, re-executed K times via a
//	          conditional back-jump driven by the pass counter
//	E0..:     epilogue — the last S-1 iterations' trailing stages, then an
//	          unconditional jump over the sequential fallback
//	SEQ:      the list-scheduled loop, taken when T < S (the pipeline
//	          needs at least S iterations to fill)
//
// Every pipeline value is pinned: one RF register per body operation holds
// the value across all overlapped iterations (the dependence windows of
// modsched.Edge keep each lifetime within one II, so no modulo variable
// expansion is needed). All instance ops carry Node == nil; the CDFG nodes
// are covered exactly once by the sequential fallback, keeping the verifier's
// coverage rule intact.
//
// The realization writes the schedule only through the list scheduler's
// writers: emit for every PE op, copyHop for every routing MOVE, emitCBox for
// the guard and pass-counter consumes and jump for every CCU entry. Its setup
// code needs three helpers on top: pipeSetup places one trip-count, guard or
// pass-counter op, pipeCopyTo copies a value to (or next to) a PE, and
// pipeResident makes an invariant constant or local resident on a PE.

// pipeArg is one analyzed operand of a body operation.
type pipeArg struct {
	// producer ≥ 0 indexes the body op whose value is read, at iteration
	// distance dist. producer < 0 marks an invariant operand inv: a
	// constant or a loop-invariant local.
	producer int
	dist     int
	inv      cdfg.Operand
}

// pipeOp is one body operation after pWRITE merging.
type pipeOp struct {
	node  *cdfg.Node
	code  arch.OpCode
	args  []pipeArg
	local *cdfg.Local // non-nil: the op commits this local's home slot
	dur   int
	cand  []int
	array int
	imm   int32
}

// pipePlan is an analyzed, pipeline-eligible loop.
type pipePlan struct {
	body *cdfg.Block
	ops  []pipeOp
	// ctr is the counter local; bound the invariant exit bound; inclusive
	// distinguishes IFLE (i <= b) from IFLT (i < b).
	ctr       *cdfg.Local
	bound     cdfg.Operand
	inclusive bool
}

// tryPipeline attempts to software-pipeline loop r at cycle start. ok=false
// (with nil error) means the caller should fall back to the list layout;
// a non-nil error aborts scheduling (cancellation or an internal fault).
func (s *scheduler) tryPipeline(r *cdfg.Region, start int) (end int, ok bool, err error) {
	plan, reason := s.analyzePipeline(r)
	if plan == nil {
		if s.opts.Explain != nil {
			s.opts.Explain.Add(start, fmt.Sprintf("loop r%d: %s", r.ID, reason), RejectPipelineIneligible)
		}
		return 0, false, nil
	}
	prob, perr := s.buildProblem(plan)
	if perr != "" {
		if s.opts.Explain != nil {
			s.opts.Explain.Add(start, fmt.Sprintf("loop r%d: %s", r.ID, perr), RejectPipelineIneligible)
		}
		return 0, false, nil
	}
	sol, err := modsched.Solve(s.ctx, prob)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return 0, false, fmt.Errorf("sched: modulo scheduling cancelled: %w", err)
		}
		var nse *modsched.NoScheduleError
		if errors.As(err, &nse) {
			s.logAttempts(r, start, nse.Attempts)
			if s.opts.Explain != nil {
				s.opts.Explain.Add(start, fmt.Sprintf("loop r%d: %v", r.ID, err), RejectPipelineIneligible)
			}
			return 0, false, nil
		}
		// Problem-validation faults are scheduler bugs, not fallbacks.
		return 0, false, fmt.Errorf("sched: modulo scheduling loop r%d: %w", r.ID, err)
	}
	s.logAttempts(r, start, sol.Attempts)
	return s.realizePipeline(r, plan, sol, start)
}

// logAttempts records every II attempt in the explain log, successful or not,
// so an II search is replayable from the log.
func (s *scheduler) logAttempts(r *cdfg.Region, start int, attempts []modsched.Attempt) {
	if s.opts.Explain == nil {
		return
	}
	for _, a := range attempts {
		outcome := "ok"
		if a.Err != "" {
			outcome = a.Err
		}
		s.opts.Explain.Add(start,
			fmt.Sprintf("loop r%d II=%d placed=%d ejections=%d copies=%d: %s",
				r.ID, a.II, a.Placed, a.Ejections, a.Copies, outcome),
			RejectIIAttempt)
	}
}

// analyzePipeline checks loop r against the v1 eligibility rules and, when
// they hold, extracts the merged body operations. A nil plan carries the
// human-readable reject reason.
//
// Eligible loops are innermost counted loops: a single-compare header
// IFLT/IFLE(ctr, invariant-bound), a straight-line body (RBlock), exactly one
// unpredicated pWRITE per written local, a ctr advance of exactly +1, no
// predication, no body compares, and no DMA besides LOAD.
func (s *scheduler) analyzePipeline(r *cdfg.Region) (*pipePlan, string) {
	if r.Body == nil || r.Body.Kind != cdfg.RBlock || r.Body.Block == nil {
		return nil, "body is not a straight-line block"
	}
	body := r.Body.Block
	if len(body.Nodes) == 0 {
		return nil, "empty body"
	}
	if body.Cond != nil {
		return nil, "body computes a condition"
	}
	if r.Header == nil || r.Header.Cond == nil || r.Header.Cond.Op != cdfg.CondLeaf {
		return nil, "header condition is not a single compare"
	}
	cmp := r.Header.Cond.Cmp
	if len(r.Header.Nodes) != 1 || r.Header.Nodes[0] != cmp || cmp.Pred != nil {
		return nil, "header is not exactly the exit compare"
	}
	if cmp.Op != arch.IFLT && cmp.Op != arch.IFLE {
		return nil, fmt.Sprintf("exit compare %v is not IFLT/IFLE", cmp.Op)
	}
	if len(cmp.Args) != 2 || cmp.Args[0].Kind != cdfg.FromLocal {
		return nil, "exit compare does not read a counter local"
	}
	ctr := cmp.Args[0].Local
	bound := cmp.Args[1]
	if bound.Kind == cdfg.FromNode {
		return nil, "exit bound is a header computation"
	}

	inBody := map[*cdfg.Node]bool{}
	for _, n := range body.Nodes {
		inBody[n] = true
	}
	writes := make([][]*cdfg.Node, len(s.locals)) // by Local.ID
	for _, n := range body.Nodes {
		if n.Pred != nil {
			return nil, "predicated operation in body"
		}
		switch n.Kind {
		case cdfg.KPWrite:
			writes[n.Local.ID] = append(writes[n.Local.ID], n)
		case cdfg.KOp:
			if n.Op == arch.STORE {
				return nil, "STORE in body"
			}
			if n.IsDMA() && n.Op != arch.LOAD {
				return nil, fmt.Sprintf("DMA op %v in body", n.Op)
			}
			if n.IsCompare() {
				return nil, "compare in body"
			}
		default:
			return nil, "unknown node kind in body"
		}
		for _, a := range n.Args {
			if a.Kind == cdfg.FromNode && !inBody[a.Node] {
				return nil, "body reads a value from outside the loop"
			}
			if a.Kind == cdfg.FromLocal && len(a.Version) > 1 {
				return nil, "multi-writer versioned read"
			}
		}
	}
	for _, n := range body.Nodes {
		if n.Kind == cdfg.KPWrite && len(writes[n.Local.ID]) > 1 {
			return nil, fmt.Sprintf("local %q written more than once per iteration", n.Local.Name)
		}
	}
	if bound.Kind == cdfg.FromLocal && len(writes[bound.Local.ID]) > 0 {
		return nil, "exit bound is written inside the loop"
	}
	ctrWs := writes[ctr.ID]
	if len(ctrWs) != 1 {
		return nil, "counter is not written exactly once per iteration"
	}
	if !ctrStepIsOne(ctrWs[0], ctr) {
		return nil, "counter advance is not ctr = ctr + 1"
	}
	// Ordering prerequisites must coincide with data edges already implied
	// by the args (true for eligible bodies by construction: version reads
	// duplicate Prereqs, there are no stores, and single writes leave no
	// WAW arcs). Anything else would need a no-route ordering edge the
	// solver does not model.
	for _, n := range body.Nodes {
		for _, p := range n.Prereqs {
			if !inBody[p] {
				continue // satisfied before the loop starts
			}
			if !argImplies(n, p) {
				return nil, fmt.Sprintf("ordering prereq n%d→n%d has no data edge", p.ID, n.ID)
			}
		}
		if n.Kind != cdfg.KPWrite {
			for _, w := range n.WeakPrereqs {
				if inBody[w] {
					return nil, "write-after-read ordering on a non-pWRITE node"
				}
			}
		}
	}

	plan := &pipePlan{body: body, ctr: ctr, bound: bound, inclusive: cmp.Op == arch.IFLE}
	if reason := s.extractOps(plan, writes); reason != "" {
		return nil, reason
	}
	return plan, ""
}

// ctrStepIsOne reports whether pWRITE w advances ctr by exactly +1.
func ctrStepIsOne(w *cdfg.Node, ctr *cdfg.Local) bool {
	n := w.AliasOf
	if n == nil || n.Op != arch.IADD || len(n.Args) != 2 {
		return false
	}
	a, b := n.Args[0], n.Args[1]
	isCtr := func(o cdfg.Operand) bool {
		return o.Kind == cdfg.FromLocal && o.Local == ctr && len(o.Version) == 0
	}
	isOne := func(o cdfg.Operand) bool { return o.Kind == cdfg.FromConst && o.Const == 1 }
	return (isCtr(a) && isOne(b)) || (isOne(a) && isCtr(b))
}

// argImplies reports whether node n already depends on p through an operand
// (directly or via a versioned local read).
func argImplies(n, p *cdfg.Node) bool {
	for _, a := range n.Args {
		if a.Kind == cdfg.FromNode && a.Node == p {
			return true
		}
		if a.Kind == cdfg.FromLocal {
			for _, w := range a.Version {
				if w == p {
					return true
				}
			}
		}
	}
	return false
}

// extractOps merges pWRITEs into their producers where the home PE allows it
// and builds the pipeOp list. A non-empty return is a reject reason.
func (s *scheduler) extractOps(plan *pipePlan, writes [][]*cdfg.Node) string {
	body := plan.body
	// Ensure every written local has a home before candidate sets are
	// pinned to it (the list scheduler would assign the same way on first
	// write: producer PE if known, else the best-connected PE). Homes are
	// assigned in body order: a home can depend on the ones before it.
	for _, n := range body.Nodes {
		if n.Kind == cdfg.KPWrite && s.home(n.Local) == nil {
			s.homeValue(n.Local, s.pickHomePE(n.Args[0]))
		}
	}
	// Merge decisions: one unpredicated pWRITE may ride its producer when
	// the home PE supports the producer's opcode.
	merged := map[*cdfg.Node]*cdfg.Node{} // producer -> pWRITE
	if !s.opts.NoFusing {
		for _, n := range body.Nodes {
			if n.Kind != cdfg.KPWrite || n.AliasOf == nil {
				continue
			}
			home := s.home(n.Local)
			if _, taken := merged[n.AliasOf]; taken {
				continue
			}
			if s.supports(home.PE, n.AliasOf.Op) {
				merged[n.AliasOf] = n
			}
		}
	}

	nodeToOp := map[*cdfg.Node]int{}
	var raw [][]cdfg.Operand // per op, the CDFG operands to resolve
	for _, n := range body.Nodes {
		if n.Kind == cdfg.KPWrite {
			if pw := merged[n.AliasOf]; n.AliasOf != nil && pw == n {
				nodeToOp[n] = nodeToOp[n.AliasOf] // producer emitted earlier (topological order)
				continue
			}
			home := s.home(n.Local)
			code := arch.MOVE
			var imm int32
			if n.Args[0].Kind == cdfg.FromConst {
				code = arch.CONST
				imm = n.Args[0].Const
			}
			if !s.supports(home.PE, code) {
				return fmt.Sprintf("home PE %d of %q lacks %v", home.PE, n.Local.Name, code)
			}
			op := pipeOp{
				node: n, code: code, local: n.Local, imm: imm,
				dur: s.duration(home.PE, code), cand: []int{home.PE},
			}
			args := n.Args[:0:0]
			if code == arch.MOVE {
				args = n.Args[:1]
			}
			nodeToOp[n] = len(plan.ops)
			plan.ops = append(plan.ops, op)
			raw = append(raw, args)
			continue
		}
		op := pipeOp{node: n, code: n.Op, array: n.Array, imm: n.Const}
		if pw := merged[n]; pw != nil {
			home := s.home(pw.Local)
			op.local = pw.Local
			op.cand = []int{home.PE}
			op.dur = s.duration(home.PE, n.Op)
		} else {
			cand, dur := s.minDurPEs(n.Op)
			if len(cand) == 0 {
				return fmt.Sprintf("no PE supports %v", n.Op)
			}
			op.cand, op.dur = cand, dur
		}
		nodeToOp[n] = len(plan.ops)
		plan.ops = append(plan.ops, op)
		raw = append(raw, n.Args)
	}

	// Resolve args to pipeArgs and dependence info.
	for i := range plan.ops {
		resolved := make([]pipeArg, 0, len(raw[i]))
		for _, a := range raw[i] {
			switch a.Kind {
			case cdfg.FromNode:
				resolved = append(resolved, pipeArg{producer: nodeToOp[a.Node]})
			case cdfg.FromConst:
				resolved = append(resolved, pipeArg{producer: -1, inv: a})
			case cdfg.FromLocal:
				if len(a.Version) == 1 {
					resolved = append(resolved, pipeArg{producer: nodeToOp[a.Version[0]]})
				} else if ws := writes[a.Local.ID]; len(ws) == 1 {
					resolved = append(resolved, pipeArg{producer: nodeToOp[ws[0]], dist: 1})
				} else {
					resolved = append(resolved, pipeArg{producer: -1, inv: a})
				}
			}
		}
		plan.ops[i].args = resolved
	}
	return ""
}

// minDurPEs returns the PEs implementing op at its minimum duration (modulo
// ops need one uniform latency across their candidate set).
func (s *scheduler) minDurPEs(op arch.OpCode) ([]int, int) {
	all := s.supp[op]
	best := 0
	for i, pe := range all {
		d := s.duration(pe, op)
		if i == 0 || d < best {
			best = d
		}
	}
	var out []int
	for _, pe := range all {
		if s.duration(pe, op) == best {
			out = append(out, pe)
		}
	}
	return out, best
}

// buildProblem translates the plan into a modsched.Problem. A non-empty
// string is a reject reason.
func (s *scheduler) buildProblem(plan *pipePlan) (*modsched.Problem, string) {
	moveCand, moveDur := s.minDurPEs(arch.MOVE)
	if len(moveCand) == 0 {
		return nil, "no PE supports MOVE"
	}
	subCand, subDur := s.minDurPEs(arch.ISUB)
	// The pass counter is initialized by a MOVE on the same PE.
	subCand = s.filterSupports(subCand, arch.MOVE)
	if len(subCand) == 0 {
		return nil, "no PE supports both ISUB and MOVE for loop control"
	}
	cmpCand, cmpDur := s.minDurPEs(arch.IFGT)
	if len(cmpCand) == 0 {
		return nil, "no PE supports IFGT for loop control"
	}
	p := &modsched.Problem{
		NumPEs:   s.comp.NumPEs(),
		Dist:     s.rt.Dist,
		MoveCand: moveCand, MoveDur: moveDur,
		SubCand: subCand, SubDur: subDur,
		CmpCand: cmpCand, CmpDur: cmpDur,
	}
	for i, m := range plan.ops {
		p.Ops = append(p.Ops, modsched.Op{
			ID: i, Name: m.node.String(), Dur: m.dur, Cand: m.cand, CopyOf: -1,
		})
		for _, a := range m.args {
			if a.producer >= 0 {
				p.Edges = append(p.Edges, modsched.Edge{From: a.producer, To: i, Dist: a.dist})
			}
		}
	}
	return p, ""
}

func (s *scheduler) filterSupports(pes []int, op arch.OpCode) []int {
	var out []int
	for _, pe := range pes {
		if s.supports(pe, op) {
			out = append(out, pe)
		}
	}
	return out
}

// --- realization ---

// realizePipeline emits the solved modulo schedule as contexts, starting at
// cycle start, and returns the first cycle after the construct. ok=false
// (nil error) falls back to the list layout with no state committed.
func (s *scheduler) realizePipeline(r *cdfg.Region, plan *pipePlan, sol *modsched.Solution, start int) (int, bool, error) {
	II, S := sol.II, sol.Stages
	ctrHome := s.home(plan.ctr)

	// The trip/pass-count computation needs ISUB, possibly IADD, and the
	// guard compare IFGE on one PE near the counter's home.
	needIADD := plan.inclusive && S == 1
	var workCand []int
	for pe := range s.comp.PEs {
		if s.supports(pe, arch.ISUB) && s.supports(pe, arch.IFGE) && (!needIADD || s.supports(pe, arch.IADD)) {
			workCand = append(workCand, pe)
		}
	}
	if len(workCand) == 0 {
		if s.opts.Explain != nil {
			s.opts.Explain.Add(start, fmt.Sprintf("loop r%d: no PE for trip-count setup", r.ID), RejectPipelineIneligible)
		}
		return 0, false, nil
	}
	workPE := s.rt.NearestFrom(ctrHome.PE, workCand)

	// From here on state is committed; failures are internal errors.
	s.safeFloor = start
	s.purgeWrittenCopies(r)

	// --- SETUP: K = (bound - ctr0) + inc - (S-1); guard K >= 1 ---
	setupMax := start // last finish among setup emissions
	rfSrc := func(v *Value) Src { return Src{Kind: SrcReg, Val: v} }

	boundVal, boundReady := s.pipeResident(plan.bound, workPE, start, &setupMax)
	ctrVal, ctrReady := s.pipeCopyTo(ctrHome, workPE, maxInt(ctrHome.Def+1, start), 1, &setupMax, nil)
	tOp, tFin := s.pipeSetup(workPE, arch.ISUB, rfSrc(boundVal), rfSrc(ctrVal),
		maxInt(maxInt(boundReady, ctrReady), start), nil)
	setupMax = maxInt(setupMax, tFin)
	kv, kReady := tOp.Dest, tFin+1
	adj := S - 1
	if plan.inclusive {
		adj--
	}
	if adj != 0 {
		code := arch.ISUB
		c := int32(adj)
		if adj < 0 {
			code = arch.IADD
			c = int32(-adj)
		}
		cv, cReady := s.pipeResident(cdfg.Operand{Kind: cdfg.FromConst, Const: c}, workPE, start, &setupMax)
		kOp, fin := s.pipeSetup(workPE, code, rfSrc(kv), rfSrc(cv), maxInt(kReady, cReady), nil)
		setupMax = maxInt(setupMax, fin)
		kv, kReady = kOp.Dest, fin+1
	}
	one := cdfg.Operand{Kind: cdfg.FromConst, Const: 1}

	// Guard: IFGE(K, 1) — pipeline iff at least S iterations remain.
	oneW, oneWReady := s.pipeResident(one, workPE, start, &setupMax)
	guardOp, guardFin := s.pipeSetup(workPE, arch.IFGE, rfSrc(kv), rfSrc(oneW), maxInt(kReady, oneWReady), nil)
	setupMax = maxInt(setupMax, guardFin)
	guardSlot := s.newSlot()
	s.emitCBox(&CBoxOp{Cycle: guardFin, Kind: CBConsume, StatusPE: guardOp.PE, Logic: CBPass, Write: guardSlot})

	// Pass counter k on SubPE, initialized to K; the kernel decrements it
	// and jumps back while the pre-decrement value exceeds 1.
	kInit, kInitReady := s.pipeCopyTo(kv, sol.SubPE, kReady, 1, &setupMax, nil)
	kVal := s.newValue(sol.SubPE, 0)
	kVal.Pinned = true
	kSrc := rfSrc(kInit)
	if kInit.PE != sol.SubPE {
		kSrc = Src{Kind: SrcRoute, Val: kInit, FromPE: kInit.PE}
	}
	_, kFin := s.pipeSetup(sol.SubPE, arch.MOVE, kSrc, Src{}, kInitReady, kVal)
	setupMax = maxInt(setupMax, kFin)
	kVal.Def = kFin

	// Control constants, resident on the control PEs.
	oneSub, _ := s.pipeResident(one, sol.SubPE, start, &setupMax)
	oneCmp, _ := s.pipeResident(one, sol.CmpPE, start, &setupMax)

	// Invariant operands of the body, resident on each op's solved PE.
	invSrc := make([][]*Value, len(plan.ops))
	for i, m := range plan.ops {
		invSrc[i] = make([]*Value, len(m.args))
		for ai, a := range m.args {
			if a.producer < 0 {
				invSrc[i][ai], _ = s.pipeResident(a.inv, sol.PE[i], start, &setupMax)
			}
		}
	}

	// Guard jump: to the sequential fallback when K < 1. All setup ops
	// must have finished by the jump context — on the fallback path the
	// pipeline's contexts never execute, so no busy tail may cross it.
	guardJump := s.jump(&CCUOp{Cycle: maxInt(setupMax, guardFin+1), Slot: guardSlot, Invert: true})

	// --- layout ---
	P0 := guardJump.Cycle + 1
	K0 := P0 + (S-1)*II
	E0 := K0 + II

	// --- instance values ---
	nOrig := len(plan.ops)
	vals := make([]*Value, len(sol.Ops))
	for i := range sol.Ops {
		if i < nOrig && plan.ops[i].local != nil {
			home := s.home(plan.ops[i].local)
			if home.PE != sol.PE[i] {
				return 0, false, fmt.Errorf("sched: pipelined op %d placed on PE %d, home of %q on PE %d",
					i, sol.PE[i], plan.ops[i].local.Name, home.PE)
			}
			vals[i] = home
			continue
		}
		v := s.newValue(sol.PE[i], P0+sol.Time[i]+sol.Ops[i].Dur-1)
		v.Pinned = true
		vals[i] = v
	}

	// Feed resolution: map each producer arg back to the op actually
	// routing the value (possibly the last copy of an inserted chain).
	feeds, err := resolveFeeds(plan, sol)
	if err != nil {
		return 0, false, err
	}

	// --- instance emission ---
	lastFinish := K0 + II - 1
	place := func(i, flat int, kernel bool) {
		m := sol.Ops[i]
		pe := sol.PE[i]
		op := &Op{PE: pe, Cycle: flat, Dur: m.Dur, Code: arch.MOVE, Dest: vals[i]}
		if i < nOrig {
			po := plan.ops[i]
			op.Code, op.Imm, op.Array = po.code, po.imm, po.array
			var srcs [2]Src
			for ai, a := range po.args {
				if a.producer >= 0 {
					srcs[ai] = routeSrc(vals, sol, feeds[i][ai], pe)
				} else {
					srcs[ai] = rfSrc(invSrc[i][ai])
				}
			}
			op.A, op.B = srcs[0], srcs[1]
		} else {
			op.A = routeSrc(vals, sol, feeds[i][0], pe)
		}
		s.emit(op)
		if kernel {
			// A kernel op whose busy tail crosses the II boundary also
			// occupies the wrapped slots of the next pass.
			for d := 0; d < m.Dur; d++ {
				slot := sol.Time[i]%II + d
				if slot >= II {
					s.markBusy(pe, K0+slot%II, 1)
				}
			}
		}
		if flat+m.Dur-1 > lastFinish {
			lastFinish = flat + m.Dur - 1
		}
	}
	for i := range sol.Ops {
		k, m := sol.Time[i]/II, sol.Time[i]%II
		for p := k; p <= S-2; p++ {
			place(i, P0+p*II+m, false)
		}
		place(i, K0+m, true)
		for e := 0; e < k; e++ {
			place(i, E0+e*II+m, false)
		}
	}

	// --- loop control: k decrement, exit compare, conditional back-jump ---
	kc := K0 + sol.CtrlSlot
	s.emit(&Op{
		PE: sol.SubPE, Cycle: kc, Dur: s.duration(sol.SubPE, arch.ISUB), Code: arch.ISUB,
		A: rfSrc(kVal), B: rfSrc(oneSub), Dest: kVal,
	})
	// The compare reads the pre-decrement k over the routing network (the
	// RF presents the old value while it is being overwritten): the jump
	// back is taken while k > 1, giving exactly K kernel passes.
	cmpDur := s.duration(sol.CmpPE, arch.IFGT)
	s.emit(&Op{
		PE: sol.CmpPE, Cycle: kc, Dur: cmpDur, Code: arch.IFGT,
		A: Src{Kind: SrcRoute, Val: kVal, FromPE: sol.SubPE}, B: rfSrc(oneCmp),
	})
	condSlot := s.newSlot()
	s.emitCBox(&CBoxOp{Cycle: kc + cmpDur - 1, Kind: CBConsume, StatusPE: sol.CmpPE, Logic: CBPass, Write: condSlot})
	bjc := K0 + II - 1
	if s.sch.CCU[bjc] != nil {
		return 0, false, fmt.Errorf("sched: pipelined back-jump cycle %d already used", bjc)
	}
	s.jump(&CCUOp{Cycle: bjc, Slot: condSlot, Target: K0})

	// --- exit jump over the sequential fallback ---
	exitJump := s.jump(&CCUOp{Cycle: maxInt(E0+(S-1)*II-1, lastFinish), Uncond: true})

	// --- sequential fallback (also realizes every CDFG node once) ---
	seqStart := exitJump.Cycle + 1
	guardJump.Target = seqStart
	s.safeFloor = seqStart
	seqEnd, err := s.loop(r, seqStart)
	if err != nil {
		return 0, false, err
	}
	exitJump.Target = seqEnd
	// Copies and constants born on the fallback path do not exist when the
	// pipeline ran: hide them from later consumers.
	s.purgeCopiesFrom(seqStart)
	s.safeFloor = seqEnd

	s.sch.Pipelined = append(s.sch.Pipelined, PipelinedLoop{
		II: II, MII: sol.MII, ResMII: sol.ResMII, RecMII: sol.RecMII,
		Stages: S, Ops: nOrig, Copies: len(sol.Ops) - nOrig,
		Backtracks: sol.Backtracks, Attempts: len(sol.Attempts),
		Start: start, End: seqEnd,
	})
	s.sch.Stats.PipelinedLoops++
	s.sch.Stats.ModuloBacktracks += sol.Backtracks
	return seqEnd, true, nil
}

// routeSrc builds the operand source for reading op src's value on pe.
func routeSrc(vals []*Value, sol *modsched.Solution, src, pe int) Src {
	if sol.PE[src] == pe {
		return Src{Kind: SrcReg, Val: vals[src]}
	}
	return Src{Kind: SrcRoute, Val: vals[src], FromPE: sol.PE[src]}
}

// resolveFeeds maps, for each original op and producer-arg position, the
// solution op whose value is actually read (the writer itself, or the last
// copy of an inserted routing chain); copies resolve their single in-edge.
func resolveFeeds(plan *pipePlan, sol *modsched.Solution) ([][]int, error) {
	// A copy of a copy names that copy: follow the chain to the producer.
	origin := func(i int) int {
		for sol.Ops[i].CopyOf >= 0 {
			i = sol.Ops[i].CopyOf
		}
		return i
	}
	in := make([][]modsched.Edge, len(sol.Ops))
	for _, e := range sol.Edges {
		in[e.To] = append(in[e.To], e)
	}
	used := make([][]bool, len(sol.Ops))
	for i := range in {
		used[i] = make([]bool, len(in[i]))
	}
	nOrig := len(plan.ops)
	feeds := make([][]int, len(sol.Ops))
	for i := range sol.Ops {
		if i >= nOrig {
			if len(in[i]) != 1 {
				return nil, fmt.Errorf("sched: pipelined copy %d has %d in-edges", i, len(in[i]))
			}
			feeds[i] = []int{in[i][0].From}
			continue
		}
		feeds[i] = make([]int, len(plan.ops[i].args))
		for ai, a := range plan.ops[i].args {
			feeds[i][ai] = -1
			if a.producer < 0 {
				continue
			}
			for k, e := range in[i] {
				if !used[i][k] && origin(e.From) == a.producer {
					used[i][k] = true
					feeds[i][ai] = e.From
					break
				}
			}
			if feeds[i][ai] < 0 {
				return nil, fmt.Errorf("sched: pipelined op %d: no edge for producer %d", i, a.producer)
			}
		}
	}
	return feeds, nil
}

// --- setup emission helpers ---

// pipeSetup places one setup operation on pe at the earliest cycle ≥ minT
// where the PE is free and any routed operand's source port is available; a
// compare also needs the C-Box free in its last cycle, when its status
// arrives. A non-compare with dest nil writes a fresh value. Returns the op
// and its finish cycle.
func (s *scheduler) pipeSetup(pe int, code arch.OpCode, a, b Src, minT int, dest *Value) (*Op, int) {
	dur := s.duration(pe, code)
	routedOK := func(src Src, t int) bool {
		return src.Kind != SrcRoute || s.outlAvailable(src.FromPE, t, src.Val)
	}
	t := minT
	for {
		t = s.earliestFree(pe, t, dur)
		if (!code.IsCompare() || !at(s.cboxBusy, t+dur-1)) && routedOK(a, t) && routedOK(b, t) {
			break
		}
		t++
	}
	fin := t + dur - 1
	if dest == nil && !code.IsCompare() {
		dest = s.newValue(pe, fin)
	}
	op := &Op{PE: pe, Cycle: t, Dur: dur, Code: code, A: a, B: b, Dest: dest}
	s.emit(op)
	return op, fin
}

// pipeCopyTo copies v along a shortest path, from cycle ready on, until it
// is within reach hops of pe, and returns the last copy and the cycle it is
// readable from. With reg nil the copies are temporaries, never reused (a
// snapshot like the counter's goes stale once the body runs); otherwise each
// is pinned and registered as an instance of reg.
func (s *scheduler) pipeCopyTo(v *Value, pe, ready, reach int, setupMax *int, reg *cdfg.Operand) (*Value, int) {
	if s.rt.Dist(v.PE, pe) <= reach {
		return v, ready
	}
	path, err := s.rt.Path(v.PE, pe)
	if err != nil {
		return v, ready // unreachable: FullyConnected rules this out
	}
	for _, hop := range path[1 : len(path)-reach] {
		v = s.copyHop(v, hop, ready)
		if reg != nil {
			v.Pinned = true
			s.registerCopy(*reg, v)
		}
		*setupMax = maxInt(*setupMax, v.Def)
		ready = v.Def + 1
	}
	return v, ready
}

// pipeResident returns a pinned instance of the invariant operand o (a
// constant or a local) resident on pe, and the cycle it is readable from:
// an instance already there, a CONST materialized there, or a copy of the
// nearest instance (the oldest among equally near, so a local's home before
// its copies). A constant no instance of which exists is materialized on the
// CONST-capable PE nearest pe first.
func (s *scheduler) pipeResident(o cdfg.Operand, pe, floor int, setupMax *int) (*Value, int) {
	if o.Kind == cdfg.FromLocal {
		s.homeValue(o.Local, pe)
	}
	var best *Value
	for _, v := range s.sourcesOf(o) {
		if best == nil || s.rt.Dist(v.PE, pe) < s.rt.Dist(best.PE, pe) {
			best = v
		}
	}
	if best != nil && best.PE == pe {
		return best, maxInt(best.Def+1, floor)
	}
	if o.Kind == cdfg.FromConst {
		src := -1
		if s.supports(pe, arch.CONST) {
			src = pe
		} else if best == nil {
			src = s.rt.NearestFrom(pe, s.supp[arch.CONST])
		}
		if src >= 0 {
			e := s.earliestFree(src, floor, 1)
			best = s.materializeConst(o.Const, src, e)
			*setupMax = maxInt(*setupMax, e)
		}
	}
	return s.pipeCopyTo(best, pe, maxInt(best.Def+1, floor), 0, setupMax, &o)
}
