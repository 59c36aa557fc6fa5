package cdfg

import (
	"math"
	"testing"

	"cgra/internal/arch"
	"cgra/internal/ir"
)

// archOp returns the PE opcode a binary operator lowers to: an ALU op for
// arithmetic, a status-producing compare for relations. ok is false for
// the logical connectives, which lower to predicates instead.
func archOp(op ir.BinOp) (code arch.OpCode, ok bool) {
	if code, ok = binToArch[op]; ok {
		return code, true
	}
	code, ok = cmpToArch[op]
	return code, ok
}

// TestEvalMatchesIR holds the op table to ir.EvalBin, the interpreter's
// definition: for every binary operator the lowering maps to a PE opcode,
// arch.Eval or arch.Holds must agree with it on edge operands (extremes,
// shift counts around the 5-bit mask).
func TestEvalMatchesIR(t *testing.T) {
	vals := []int32{math.MinInt32, -31, -2, -1, 0, 1, 2, 4, 31, 32, 33, 0x12345678, math.MaxInt32}
	for op := ir.OpAdd; op <= ir.OpLOr; op++ {
		code, ok := archOp(op)
		if !ok {
			if !op.IsLogical() {
				t.Errorf("cdfg lowers %v to no PE opcode", op)
			}
			continue
		}
		if op.IsCompare() != code.IsCompare() {
			t.Errorf("%v lowers to %v across the compare/ALU line", op, code)
		}
		for _, a := range vals {
			for _, b := range vals {
				want, err := ir.EvalBin(op, a, b, nil)
				if err != nil {
					t.Fatalf("ir.EvalBin(%v, %d, %d): %v", op, a, b, err)
				}
				got := arch.Eval(code, a, b)
				if op.IsCompare() {
					got = 0
					if arch.Holds(code, a, b) {
						got = 1
					}
				}
				if got != want {
					t.Errorf("%v as %v on (%d, %d): arch %d, ir %d", op, code, a, b, got, want)
				}
			}
		}
	}
}
