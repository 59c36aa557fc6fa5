package sched

import (
	"fmt"

	"cgra/internal/arch"
	"cgra/internal/cdfg"
)

// Verify checks a schedule's internal consistency against the machine model:
// PE exclusivity, operand readability, interconnect legality, routing-output
// conflicts, C-Box single-access rules, predication gating, CCU sanity and
// complete coverage of the CDFG. The scheduler runs it on every result; it
// exists so scheduler bugs surface as descriptive errors instead of silent
// mis-execution.
//
// Its bookkeeping is dense: one int32 table holds, per (PE, cycle), the
// op occupying the PE and the op whose routed read drives its output, per
// cycle the C-Box op and the predicated op, and per CDFG node ID how many
// ops realize it. The op and C-Box entries are indices+1 into s.Ops or
// s.CBox (0 = none). Every cycle and PE is range-checked before it
// indexes a table.
func Verify(s *Schedule) error {
	numPE, length := s.Comp.NumPEs(), s.Length
	if length < 0 {
		return fmt.Errorf("schedule length %d is negative", length)
	}
	var nodes []*cdfg.Node
	numIDs := 0
	if s.Graph != nil {
		nodes = s.Graph.AllNodes()
		for _, n := range nodes {
			numIDs = max(numIDs, n.ID+1)
		}
	}
	grid := numPE * length
	table := make([]int32, 2*grid+2*length+numIDs)
	take := func(n int) []int32 {
		t := table[:n:n]
		table = table[n:]
		return t
	}
	busy, outl, cbox, predAt, seen := take(grid), take(grid), take(length), take(length), take(numIDs)

	for i, op := range s.Ops {
		if op.PE < 0 || op.PE >= numPE {
			return fmt.Errorf("op %v: PE out of range", op)
		}
		pe := s.Comp.PEs[op.PE]
		if !pe.Supports(op.Code) {
			return fmt.Errorf("op %v: PE %d does not implement %v", op, op.PE, op.Code)
		}
		if op.Dur != pe.Duration(op.Code) {
			return fmt.Errorf("op %v: duration %d does not match PE's %d", op, op.Dur, pe.Duration(op.Code))
		}
		if op.Code.IsDMA() && !pe.HasDMA {
			return fmt.Errorf("op %v: DMA on non-DMA PE %d", op, op.PE)
		}
		if op.Cycle < 0 || op.Cycle+op.Dur > length {
			return fmt.Errorf("op %v: outside schedule [0,%d)", op, length)
		}
		for c := op.Cycle; c < op.Cycle+op.Dur; c++ {
			at := &busy[op.PE*length+c]
			if *at != 0 {
				return fmt.Errorf("PE %d double-booked at cycle %d: %v and %v", op.PE, c, s.Ops[*at-1], op)
			}
			*at = int32(i + 1)
		}
		if err := verifySrc(s, op, op.A); err != nil {
			return err
		}
		if err := verifySrc(s, op, op.B); err != nil {
			return err
		}
		if op.Dest != nil && op.Dest.PE != op.PE {
			return fmt.Errorf("op %v: writes value homed on PE %d", op, op.Dest.PE)
		}
		if op.Code == arch.STORE && op.Dest != nil {
			return fmt.Errorf("op %v: STORE must not write the RF", op)
		}
	}
	// Routing outputs: one value per (PE, cycle). verifySrc has checked
	// every routed read's source PE.
	for i, op := range s.Ops {
		for _, src := range [2]Src{op.A, op.B} {
			if src.Kind != SrcRoute {
				continue
			}
			at := &outl[src.FromPE*length+op.Cycle]
			if *at != 0 {
				if v := routedFrom(s.Ops[*at-1], src.FromPE); v != src.Val {
					return fmt.Errorf("outl conflict on PE %d cycle %d: values %d and %d",
						src.FromPE, op.Cycle, v.ID, src.Val.ID)
				}
			}
			*at = int32(i + 1)
		}
	}
	// C-Box: at most one micro-op per cycle; slots written before read.
	for i, cb := range s.CBox {
		if cb.Cycle < 0 || cb.Cycle >= length {
			return fmt.Errorf("C-Box op %v: cycle outside schedule [0,%d)", cb, length)
		}
		if other := cbox[cb.Cycle]; other != 0 {
			return fmt.Errorf("C-Box double-booked at cycle %d: %v and %v", cb.Cycle, s.CBox[other-1], cb)
		}
		cbox[cb.Cycle] = int32(i + 1)
		if cb.Write == nil {
			return fmt.Errorf("C-Box op without target slot at cycle %d", cb.Cycle)
		}
		if cb.Kind == CBConsume {
			// A compare on StatusPE must finish in this cycle.
			found := false
			for _, op := range s.Ops {
				if op.PE == cb.StatusPE && op.Code.IsCompare() && op.Cycle+op.Dur-1 == cb.Cycle {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("C-Box consume at cycle %d: no compare finishing on PE %d", cb.Cycle, cb.StatusPE)
			}
		}
		for _, slot := range [2]*Slot{cb.A, cb.B} {
			if slot == nil {
				continue
			}
			if err := slotReadableAt(s, slot, cb.Cycle); err != nil {
				return fmt.Errorf("C-Box op at cycle %d: %v", cb.Cycle, err)
			}
		}
	}
	// Predication: one gated slot per cycle, readable when used.
	for i, op := range s.Ops {
		if op.PredSlot == nil {
			continue
		}
		if prev := predAt[op.Cycle]; prev != 0 && s.Ops[prev-1].PredSlot != op.PredSlot {
			return fmt.Errorf("two predication slots gated at cycle %d", op.Cycle)
		}
		predAt[op.Cycle] = int32(i + 1)
		if err := slotReadableAt(s, op.PredSlot, op.Cycle); err != nil {
			return fmt.Errorf("op %v: %v", op, err)
		}
	}
	// CCU: jumps sit inside the schedule and target valid contexts;
	// conditional jumps read live slots.
	for cycle, j := range s.CCU {
		if j.Cycle != cycle {
			return fmt.Errorf("CCU map key %d != op cycle %d", cycle, j.Cycle)
		}
		if cycle < 0 || cycle >= length {
			return fmt.Errorf("CCU op %v: cycle outside schedule [0,%d)", j, length)
		}
		if j.Target < 0 || j.Target >= length {
			return fmt.Errorf("CCU op %v: target outside [0,%d)", j, length)
		}
		if !j.Uncond {
			if j.Slot == nil {
				return fmt.Errorf("conditional CCU op %v without slot", j)
			}
			if err := slotReadableAt(s, j.Slot, j.Cycle); err != nil {
				return fmt.Errorf("CCU op %v: %v", j, err)
			}
		}
	}
	// Coverage: every CDFG node realized exactly once, counted by node ID
	// (unique within a graph).
	for _, op := range s.Ops {
		if op.Node != nil && op.Node.ID >= 0 && op.Node.ID < numIDs {
			seen[op.Node.ID]++
		}
	}
	for _, n := range nodes {
		switch seen[n.ID] {
		case 0:
			// Fused pWRITEs share their producer's op.
			if n.Kind == cdfg.KPWrite {
				continue
			}
			return fmt.Errorf("node %s never scheduled", n)
		case 1:
		default:
			return fmt.Errorf("node %s scheduled %d times", n, seen[n.ID])
		}
	}
	return nil
}

// routedFrom is the value op reads over the route from PE from.
func routedFrom(op *Op, from int) *Value {
	if op.A.Kind == SrcRoute && op.A.FromPE == from {
		return op.A.Val
	}
	return op.B.Val
}

// verifySrc checks one operand fetch: the value must be written strictly
// before the reading cycle (pinned home slots and constants are exempt from
// the static order because loops re-execute their writers), and routed reads
// must follow a real interconnect edge.
func verifySrc(s *Schedule, op *Op, src Src) error {
	switch src.Kind {
	case SrcNone:
		return nil
	case SrcReg:
		if src.Val.PE != op.PE {
			return fmt.Errorf("op %v: register operand r%d lives on PE %d", op, src.Val.ID, src.Val.PE)
		}
	case SrcRoute:
		if src.FromPE < 0 || src.FromPE >= s.Comp.NumPEs() {
			return fmt.Errorf("op %v: routed operand from PE %d out of range", op, src.FromPE)
		}
		if src.Val.PE != src.FromPE {
			return fmt.Errorf("op %v: routed operand r%d not on source PE %d", op, src.Val.ID, src.FromPE)
		}
		if !s.Comp.PEs[op.PE].CanReadFrom(src.FromPE) {
			return fmt.Errorf("op %v: no interconnect edge %d→%d", op, src.FromPE, op.PE)
		}
	}
	if !src.Val.Pinned && src.Val.Def >= op.Cycle {
		return fmt.Errorf("op %v: reads value r%d before it is written (def %d)", op, src.Val.ID, src.Val.Def)
	}
	return nil
}

// slotReadableAt checks that the slot has a write strictly before the cycle,
// or is rewritten inside a loop that also contains the use (loop-carried
// condition bits are written by an earlier iteration).
func slotReadableAt(s *Schedule, slot *Slot, cycle int) error {
	for _, w := range slot.Writes {
		if w < cycle {
			return nil
		}
	}
	for _, lr := range s.LoopRanges {
		for _, w := range slot.Writes {
			if w >= lr[0] && w <= lr[1] && cycle >= lr[0] && cycle <= lr[1] {
				return nil
			}
		}
	}
	return fmt.Errorf("slot s%d read at cycle %d before any write", slot.ID, cycle)
}
