package sched

import (
	"strings"
	"testing"

	"cgra/internal/arch"
)

// emptySchedule builds a minimal valid schedule skeleton on a 2x2 mesh.
func emptySchedule(t *testing.T) *Schedule {
	t.Helper()
	comp, err := arch.HomogeneousMesh(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &Schedule{
		Comp:   comp,
		Length: 10,
		CCU:    map[int]*CCUOp{},
		Homes:  map[string]*Value{},
	}
}

func val(s *Schedule, pe, def int) *Value {
	v := &Value{ID: len(s.Values), PE: pe, Def: def, Addr: -1}
	s.Values = append(s.Values, v)
	return v
}

func slot(s *Schedule, writes ...int) *Slot {
	sl := &Slot{ID: len(s.Slots), Writes: writes, Phys: -1}
	s.Slots = append(s.Slots, sl)
	return sl
}

func expectVerifyError(t *testing.T, s *Schedule, substr string) {
	t.Helper()
	err := Verify(s)
	if err == nil {
		t.Fatalf("Verify accepted a schedule that should fail (%s)", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("Verify error %q does not mention %q", err, substr)
	}
}

func TestVerifyDetectsDoubleBooking(t *testing.T) {
	s := emptySchedule(t)
	d1, d2 := val(s, 0, 2), val(s, 0, 2)
	s.Ops = append(s.Ops,
		&Op{PE: 0, Cycle: 2, Dur: 1, Code: arch.CONST, Dest: d1},
		&Op{PE: 0, Cycle: 2, Dur: 1, Code: arch.CONST, Dest: d2},
	)
	expectVerifyError(t, s, "double-booked")
}

func TestVerifyDetectsMultiCycleOverlap(t *testing.T) {
	s := emptySchedule(t)
	d1, d2 := val(s, 0, 3), val(s, 0, 3)
	a := val(s, 0, 0)
	a.Pinned = true
	s.Ops = append(s.Ops,
		&Op{PE: 0, Cycle: 2, Dur: 2, Code: arch.IMUL,
			A: Src{Kind: SrcReg, Val: a}, B: Src{Kind: SrcReg, Val: a}, Dest: d1},
		&Op{PE: 0, Cycle: 3, Dur: 1, Code: arch.CONST, Dest: d2},
	)
	expectVerifyError(t, s, "double-booked")
}

func TestVerifyDetectsUnsupportedOp(t *testing.T) {
	s := emptySchedule(t)
	// PE 1 has no DMA on the 2x2 mesh (DMA at 0 and 3).
	d := val(s, 1, 2)
	idx := val(s, 1, 0)
	idx.Pinned = true
	s.Ops = append(s.Ops, &Op{PE: 1, Cycle: 2, Dur: 2, Code: arch.LOAD,
		A: Src{Kind: SrcReg, Val: idx}, Dest: d})
	expectVerifyError(t, s, "does not implement")
}

func TestVerifyDetectsReadBeforeWrite(t *testing.T) {
	s := emptySchedule(t)
	producer := val(s, 0, 5) // written end of cycle 5
	d := val(s, 0, 3)
	s.Ops = append(s.Ops, &Op{PE: 0, Cycle: 3, Dur: 1, Code: arch.MOVE,
		A: Src{Kind: SrcReg, Val: producer}, Dest: d})
	expectVerifyError(t, s, "before it is written")
}

func TestVerifyDetectsIllegalRoute(t *testing.T) {
	s := emptySchedule(t)
	// 2x2 mesh: PE 0 and PE 3 are NOT adjacent.
	remote := val(s, 3, 0)
	remote.Pinned = true
	d := val(s, 0, 2)
	s.Ops = append(s.Ops, &Op{PE: 0, Cycle: 2, Dur: 1, Code: arch.MOVE,
		A: Src{Kind: SrcRoute, Val: remote, FromPE: 3}, Dest: d})
	expectVerifyError(t, s, "no interconnect edge")
}

func TestVerifyDetectsOutlConflict(t *testing.T) {
	s := emptySchedule(t)
	v1, v2 := val(s, 1, 0), val(s, 1, 0)
	v1.Pinned, v2.Pinned = true, true
	d0, d3 := val(s, 0, 3), val(s, 3, 3)
	s.Ops = append(s.Ops,
		&Op{PE: 0, Cycle: 2, Dur: 1, Code: arch.MOVE,
			A: Src{Kind: SrcRoute, Val: v1, FromPE: 1}, Dest: d0},
		&Op{PE: 3, Cycle: 2, Dur: 1, Code: arch.MOVE,
			A: Src{Kind: SrcRoute, Val: v2, FromPE: 1}, Dest: d3},
	)
	expectVerifyError(t, s, "outl conflict")
}

func TestVerifyDetectsCBoxDoubleBooking(t *testing.T) {
	s := emptySchedule(t)
	a := val(s, 0, 0)
	a.Pinned = true
	s.Ops = append(s.Ops, &Op{PE: 0, Cycle: 2, Dur: 1, Code: arch.IFLT,
		A: Src{Kind: SrcReg, Val: a}, B: Src{Kind: SrcReg, Val: a}})
	s1, s2 := slot(s, 2), slot(s, 2)
	s.CBox = append(s.CBox,
		&CBoxOp{Cycle: 2, Kind: CBConsume, StatusPE: 0, Logic: CBPass, Write: s1},
		&CBoxOp{Cycle: 2, Kind: CBRecombine, Logic: CBPass, A: s1, Write: s2},
	)
	expectVerifyError(t, s, "C-Box double-booked")
}

func TestVerifyDetectsConsumeWithoutCompare(t *testing.T) {
	s := emptySchedule(t)
	s.CBox = append(s.CBox, &CBoxOp{Cycle: 4, Kind: CBConsume, StatusPE: 2,
		Logic: CBPass, Write: slot(s, 4)})
	expectVerifyError(t, s, "no compare finishing")
}

func TestVerifyDetectsSlotReadBeforeWrite(t *testing.T) {
	s := emptySchedule(t)
	late := slot(s, 8) // written at cycle 8
	s.CCU[3] = &CCUOp{Cycle: 3, Slot: late, Target: 5}
	expectVerifyError(t, s, "before any write")
}

func TestVerifyDetectsBadJumpTarget(t *testing.T) {
	s := emptySchedule(t)
	s.CCU[3] = &CCUOp{Cycle: 3, Uncond: true, Target: 99}
	expectVerifyError(t, s, "target outside")
}

func TestVerifyDetectsTwoPredicationSlots(t *testing.T) {
	s := emptySchedule(t)
	s1, s2 := slot(s, 1), slot(s, 1)
	d0, d1 := val(s, 0, 3), val(s, 1, 3)
	s.Ops = append(s.Ops,
		&Op{PE: 0, Cycle: 3, Dur: 1, Code: arch.CONST, Dest: d0, PredSlot: s1},
		&Op{PE: 1, Cycle: 3, Dur: 1, Code: arch.CONST, Dest: d1, PredSlot: s2},
	)
	expectVerifyError(t, s, "two predication slots")
}

func TestVerifyDetectsCrossPEWrite(t *testing.T) {
	s := emptySchedule(t)
	d := val(s, 1, 2) // value homed on PE 1
	s.Ops = append(s.Ops, &Op{PE: 0, Cycle: 2, Dur: 1, Code: arch.CONST, Dest: d})
	expectVerifyError(t, s, "homed on PE")
}

func TestVerifyDetectsWrongDuration(t *testing.T) {
	s := emptySchedule(t)
	d := val(s, 0, 2)
	a := val(s, 0, 0)
	a.Pinned = true
	// IMUL has duration 2 on the block-multiplier mesh; claim 1.
	s.Ops = append(s.Ops, &Op{PE: 0, Cycle: 2, Dur: 1, Code: arch.IMUL,
		A: Src{Kind: SrcReg, Val: a}, B: Src{Kind: SrcReg, Val: a}, Dest: d})
	expectVerifyError(t, s, "duration")
}

func TestVerifyAcceptsLoopCarriedSlot(t *testing.T) {
	// A slot written inside a loop and read earlier in the same range is
	// legal (previous iteration wrote it).
	s := emptySchedule(t)
	sl := slot(s, 6)
	s.LoopRanges = [][2]int{{2, 8}}
	s.CCU[4] = &CCUOp{Cycle: 4, Slot: sl, Target: 9}
	a := val(s, 0, 0)
	a.Pinned = true
	s.Ops = append(s.Ops, &Op{PE: 0, Cycle: 6, Dur: 1, Code: arch.IFLT,
		A: Src{Kind: SrcReg, Val: a}, B: Src{Kind: SrcReg, Val: a}})
	s.CBox = append(s.CBox, &CBoxOp{Cycle: 6, Kind: CBConsume, StatusPE: 0,
		Logic: CBPass, Write: sl})
	if err := Verify(s); err != nil {
		t.Fatalf("loop-carried slot rejected: %v", err)
	}
}

// TestVerifyRangeChecksCycles: a cycle or PE outside the schedule is a
// descriptive error. Passed on, it would index past the context streams
// that ctxgen sizes by Length and the composition, and panic there.
func TestVerifyRangeChecksCycles(t *testing.T) {
	cases := []struct {
		name  string
		build func(s *Schedule)
		want  string
	}{
		{"cbox-at-length", func(s *Schedule) {
			s.CBox = append(s.CBox, &CBoxOp{Cycle: s.Length, Kind: CBRecombine, Logic: CBPass,
				A: slot(s, 1), Write: slot(s, s.Length)})
		}, "C-Box op c10   cbox s0 pass  -> s1: cycle outside schedule [0,10)"},
		{"ccu-at-minus-one", func(s *Schedule) {
			s.CCU[-1] = &CCUOp{Cycle: -1, Uncond: true, Target: 0}
		}, "CCU op c-1   ccu jump 0: cycle outside schedule [0,10)"},
		{"route-from-pe-out-of-range", func(s *Schedule) {
			remote := val(s, 7, 0)
			remote.Pinned = true
			s.Ops = append(s.Ops, &Op{PE: 0, Cycle: 2, Dur: 1, Code: arch.MOVE,
				A: Src{Kind: SrcRoute, Val: remote, FromPE: 7}, Dest: val(s, 0, 2)})
		}, "routed operand from PE 7 out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := emptySchedule(t)
			c.build(s)
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Verify panicked: %v", r)
					}
				}()
				err = Verify(s)
			}()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Verify error %v, want one mentioning %q", err, c.want)
			}
		})
	}
}
