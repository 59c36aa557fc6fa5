package sched

import (
	"fmt"

	"cgra/internal/cdfg"
)

// This file schedules the C-Box: condition expressions are evaluated one
// incoming status bit per cycle (§IV-A2), accumulating partial results in
// condition-memory slots; predicate slots conjoin a parent predicate with a
// (possibly negated) condition (§V-H). Sub-tree joins and parent conjunction
// are stored-stored combinations floated into free C-Box cycles.

// prepareCond registers the evaluation plan for a condition expression:
// each compare leaf gets a cmpRole describing the C-Box consume operation
// issued in its cycle; non-leaf right children become floated recombines.
// Shared sub-expressions (pointer-identical) are prepared once.
func (s *scheduler) prepareCond(c *cdfg.CondExpr) *condState {
	if c == nil {
		return nil
	}
	if cs := s.conds[c]; cs != nil {
		return cs
	}
	cs := &condState{ready: -1}
	s.conds[c] = cs
	switch c.Op {
	case cdfg.CondLeaf:
		cs.slot = s.newSlot()
		s.st(c.Cmp).role = &cmpRole{Expr: cs, Stored: nil, Logic: CBPass}
	case cdfg.CondAnd, cdfg.CondOr:
		logic := CBAnd
		if c.Op == cdfg.CondOr {
			logic = CBOr
		}
		x := s.prepareCond(c.X)
		if c.Y.Op == cdfg.CondLeaf && s.conds[c.Y] == nil {
			// Fold the right leaf's consume into the combine: the
			// stored partial result meets the incoming status.
			cs.slot = s.newSlot()
			s.conds[c.Y] = &condState{slot: cs.slot, ready: -1} // alias: leaf value only observable combined
			s.st(c.Y.Cmp).role = &cmpRole{Expr: cs, Stored: x, Logic: logic}
		} else {
			// General tree: evaluate both sides, then join the two
			// stored conditions.
			y := s.prepareCond(c.Y)
			cs.slot = s.newSlot()
			s.pending = append(s.pending, &pendingComb{x: x, y: y, logic: logic, out: cs})
		}
	}
	return cs
}

// preparePred ensures the predicate's slot computation is registered. The
// slot is parent AND (cond ^ negate); predicates whose parent is nil and
// that are not negated alias the condition's own slot (no extra C-Box op).
func (s *scheduler) preparePred(p *cdfg.Pred) {
	if p == nil || s.preds[p.ID].seen {
		return
	}
	s.preds[p.ID].seen = true
	s.preparePred(p.Parent)
	cond := s.prepareCond(p.Cond)
	if p.Parent == nil && !p.Negate {
		s.preds[p.ID].slot = cond.slot
		return
	}
	s.preds[p.ID].slot = s.newSlot()
	s.pending = append(s.pending, &pendingComb{pred: p})
}

// cmpStoredReady reports whether the stored operand needed by a compare's
// C-Box consume is available at cycle t (and exists at all).
func (s *scheduler) cmpStoredReady(role *cmpRole, t int) bool {
	return role.Stored == nil || (role.Stored.ready >= 0 && role.Stored.ready <= t)
}

// emitCompare issues the C-Box consume for a compare node scheduled on pe at
// cycle t.
func (s *scheduler) emitCompare(n *cdfg.Node, pe, t int) error {
	role := s.st(n).role
	if role == nil {
		// A compare whose status nobody consumes (dead condition);
		// nothing to do.
		return nil
	}
	if at(s.cboxBusy, t) {
		return fmt.Errorf("cbox busy at %d", t)
	}
	op := &CBoxOp{Cycle: t, Kind: CBConsume, StatusPE: pe, Logic: role.Logic, Write: role.Expr.slot}
	if role.Stored != nil {
		op.A = role.Stored.slot
	}
	s.emitCBox(op)
	role.Expr.ready = t + 1
	s.processPending()
	return nil
}

// processPending places floated stored-stored combinations (condition tree
// joins and predicate conjunctions) as soon as their inputs are ready, in
// the earliest free C-Box cycle at or after the safe floor.
func (s *scheduler) processPending() {
	for progress := true; progress; {
		progress = false
		kept := s.pending[:0]
		for _, pc := range s.pending {
			if s.placeComb(pc) {
				progress = true
			} else {
				kept = append(kept, pc)
			}
		}
		s.pending = kept
	}
}

// predReadyCycle resolves a predicate's slot readiness, following the alias
// of non-negated root predicates to their condition slot.
func (s *scheduler) predReadyCycle(p *cdfg.Pred) (int, bool) {
	if r := s.preds[p.ID].ready; r >= 0 {
		return r, true
	}
	if p.Parent == nil && !p.Negate {
		if cs := s.conds[p.Cond]; cs != nil && cs.ready >= 0 {
			return cs.ready, true
		}
	}
	return 0, false
}

// placeComb tries to place one pending combination; returns true on success.
func (s *scheduler) placeComb(pc *pendingComb) bool {
	if pc.pred != nil {
		p := pc.pred
		cond := s.conds[p.Cond]
		if cond.ready < 0 {
			return false
		}
		earliest := cond.ready
		var parentSlot *Slot
		if p.Parent != nil {
			pr, ok := s.predReadyCycle(p.Parent)
			if !ok {
				return false
			}
			parentSlot = s.preds[p.Parent.ID].slot
			earliest = maxInt(earliest, pr)
		}
		t := s.freeCBoxCycle(maxInt(earliest, s.safeFloor))
		out := s.preds[p.ID].slot
		if parentSlot == nil {
			// parent nil, negate true: out = !cond
			s.emitCBox(&CBoxOp{Cycle: t, Kind: CBRecombine, Logic: CBPass, A: cond.slot, InvA: p.Negate, Write: out})
		} else {
			s.emitCBox(&CBoxOp{Cycle: t, Kind: CBRecombine, Logic: CBAnd, A: parentSlot, B: cond.slot, InvB: p.Negate, Write: out})
		}
		s.preds[p.ID].ready = t + 1
		return true
	}
	if pc.x.ready < 0 || pc.y.ready < 0 {
		return false
	}
	t := s.freeCBoxCycle(maxInt(maxInt(pc.x.ready, pc.y.ready), s.safeFloor))
	s.emitCBox(&CBoxOp{Cycle: t, Kind: CBRecombine, Logic: pc.logic, A: pc.x.slot, B: pc.y.slot, Write: pc.out.slot})
	pc.out.ready = t + 1
	return true
}

// emitCBox appends op to the C-Box program, the only writer of
// Schedule.CBox: it records the reads of slots A and B and the write of
// Write, and takes the C-Box for op's cycle.
func (s *scheduler) emitCBox(op *CBoxOp) {
	for _, sl := range []*Slot{op.A, op.B} {
		if sl != nil {
			sl.Uses = append(sl.Uses, op.Cycle)
		}
	}
	op.Write.Writes = append(op.Write.Writes, op.Cycle)
	s.cboxBusy = put(s.cboxBusy, op.Cycle, true)
	s.sch.CBox = append(s.sch.CBox, op)
	s.sch.Stats.CBoxOps++
}

func (s *scheduler) freeCBoxCycle(from int) int {
	c := from
	for at(s.cboxBusy, c) {
		c++
	}
	return c
}

// predSlotReady returns the predicate's slot if it is usable at cycle t.
func (s *scheduler) predSlotReady(p *cdfg.Pred, t int) (*Slot, bool) {
	s.preparePred(p)
	s.processPending()
	ready, ok := s.predReadyCycle(p)
	if !ok || ready > t {
		return nil, false
	}
	return s.preds[p.ID].slot, true
}

// predGateOK reports whether a predicated commit can be gated at cycle t:
// the C-Box drives one predication signal (outPE) per cycle, so every
// predicated operation in a cycle must share the same slot.
func (s *scheduler) predGateOK(t int, slot *Slot) bool {
	cur := at(s.predRead, t)
	return cur == nil || cur == slot
}

func (s *scheduler) gatePred(t int, slot *Slot) {
	s.predRead = put(s.predRead, t, slot)
	slot.Uses = append(slot.Uses, t)
}
