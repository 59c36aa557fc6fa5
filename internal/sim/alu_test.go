package sim

import (
	"math"
	"testing"

	"cgra/internal/arch"
)

// Both walks inline arch.Eval and arch.Holds; these tests pin them on the
// edge operands the kernels rely on.

// TestEvalALUExhaustive covers every ALU opcode, including the JVM-style
// edge cases the kernels rely on: shift counts masked to the low five bits
// (so 32 behaves like 0 and negative counts wrap), and two's-complement
// wraparound for INT_MIN negation and subtraction overflow. CONST's
// immediate is passed as operand a, as the walks do.
func TestEvalALUExhaustive(t *testing.T) {
	const min32, max32 = math.MinInt32, math.MaxInt32
	cases := []struct {
		name string
		op   arch.OpCode
		a, b int32
		imm  int32
		want int32
	}{
		{"move", arch.MOVE, 42, -9, 0, 42},
		{"move-ignores-b-imm", arch.MOVE, -7, 99, 123, -7},
		{"const", arch.CONST, 5, 6, -123, -123},
		{"const-min", arch.CONST, 0, 0, min32, min32},

		{"add", arch.IADD, 2, 3, 0, 5},
		{"add-overflow-wraps", arch.IADD, max32, 1, 0, min32},
		{"add-negative", arch.IADD, -5, 2, 0, -3},
		{"sub", arch.ISUB, 7, 10, 0, -3},
		{"sub-underflow-wraps", arch.ISUB, min32, 1, 0, max32},
		{"sub-intmin-from-zero", arch.ISUB, 0, min32, 0, min32},
		{"mul", arch.IMUL, -4, 6, 0, -24},
		{"mul-overflow-wraps", arch.IMUL, 1 << 30, 4, 0, 0},
		{"mul-intmin-by-minus1", arch.IMUL, min32, -1, 0, min32},

		{"and", arch.IAND, 0b1100, 0b1010, 0, 0b1000},
		{"or", arch.IOR, 0b1100, 0b1010, 0, 0b1110},
		{"xor", arch.IXOR, 0b1100, 0b1010, 0, 0b0110},
		{"and-negative", arch.IAND, -1, 0x0F0F, 0, 0x0F0F},

		{"shl", arch.ISHL, 1, 4, 0, 16},
		{"shl-31", arch.ISHL, 1, 31, 0, min32},
		{"shl-32-masks-to-0", arch.ISHL, 123, 32, 0, 123},
		{"shl-33-masks-to-1", arch.ISHL, 1, 33, 0, 2},
		{"shl-neg1-masks-to-31", arch.ISHL, 1, -1, 0, min32},
		{"shr", arch.ISHR, -8, 1, 0, -4},
		{"shr-31-sign-fill", arch.ISHR, min32, 31, 0, -1},
		{"shr-32-masks-to-0", arch.ISHR, -8, 32, 0, -8},
		{"shr-neg31-masks-to-1", arch.ISHR, 8, -31, 0, 4},
		{"ushr", arch.IUSHR, -8, 1, 0, 0x7FFFFFFC},
		{"ushr-31-zero-fill", arch.IUSHR, min32, 31, 0, 1},
		{"ushr-32-masks-to-0", arch.IUSHR, -8, 32, 0, -8},
		{"ushr-neg1-masks-to-31", arch.IUSHR, -1, -1, 0, 1},

		{"neg", arch.INEG, 9, 0, 0, -9},
		{"neg-zero", arch.INEG, 0, 0, 0, 0},
		{"neg-intmin-wraps", arch.INEG, min32, 0, 0, min32},
		{"not", arch.INOT, 0, 0, 0, -1},
		{"not-minus1", arch.INOT, -1, 0, 0, 0},
		{"not-intmin", arch.INOT, min32, 0, 0, max32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.a
			if tc.op == arch.CONST {
				a = tc.imm
			}
			if got := arch.Eval(tc.op, a, tc.b); got != tc.want {
				t.Errorf("arch.Eval(%v, %d, %d) = %d, want %d", tc.op, a, tc.b, got, tc.want)
			}
		})
	}
}

// TestEvalALUShiftMaskSweep cross-checks the three shift ops against their
// reference semantics for every count in [-64, 64]: the effective count is
// count & 31, regardless of sign.
func TestEvalALUShiftMaskSweep(t *testing.T) {
	vals := []int32{0, 1, -1, 0x12345678, math.MinInt32, math.MaxInt32}
	for _, a := range vals {
		for n := int32(-64); n <= 64; n++ {
			eff := uint32(n) & 31
			if got := arch.Eval(arch.ISHL, a, n); got != a<<eff {
				t.Fatalf("ISHL %d by %d: %d, want %d", a, n, got, a<<eff)
			}
			if got := arch.Eval(arch.ISHR, a, n); got != a>>eff {
				t.Fatalf("ISHR %d by %d: %d, want %d", a, n, got, a>>eff)
			}
			if got := arch.Eval(arch.IUSHR, a, n); got != int32(uint32(a)>>eff) {
				t.Fatalf("IUSHR %d by %d: %d, want %d", a, n, got, int32(uint32(a)>>eff))
			}
		}
	}
}

// TestEvalCompareExhaustive covers every compare opcode over an ordered
// triple including the extremes, where naive subtract-and-test-sign
// implementations overflow.
func TestEvalCompareExhaustive(t *testing.T) {
	const min32, max32 = math.MinInt32, math.MaxInt32
	type cmp struct {
		op   arch.OpCode
		want func(a, b int32) bool
	}
	cmps := []cmp{
		{arch.IFLT, func(a, b int32) bool { return a < b }},
		{arch.IFLE, func(a, b int32) bool { return a <= b }},
		{arch.IFGT, func(a, b int32) bool { return a > b }},
		{arch.IFGE, func(a, b int32) bool { return a >= b }},
		{arch.IFEQ, func(a, b int32) bool { return a == b }},
		{arch.IFNE, func(a, b int32) bool { return a != b }},
	}
	vals := []int32{min32, -2, -1, 0, 1, 2, max32}
	for _, c := range cmps {
		for _, a := range vals {
			for _, b := range vals {
				if got, want := arch.Holds(c.op, a, b), c.want(a, b); got != want {
					t.Errorf("arch.Holds(%v, %d, %d) = %v, want %v", c.op, a, b, got, want)
				}
			}
		}
	}
}
