package ir

import (
	"testing"
	"testing/quick"
)

func simpleGCD() *Kernel {
	// gcd via repeated subtraction (no division in the ISA).
	return NewKernel("gcd",
		[]Param{InOut("a"), InOut("b")},
		Loop(Ne(V("b"), C(0)),
			IfElse(Gt(V("a"), V("b")),
				[]Stmt{Set("a", Sub(V("a"), V("b")))},
				[]Stmt{Set("b", Sub(V("b"), V("a")))},
			),
		),
	)
}

func TestInterpArith(t *testing.T) {
	k := NewKernel("arith",
		[]Param{In("x"), In("y"), InOut("r")},
		Set("r", Add(Mul(V("x"), V("y")), Shl(V("x"), C(2)))),
	)
	if err := Validate(k); err != nil {
		t.Fatalf("validate: %v", err)
	}
	in := &Interp{}
	out, err := in.Run(k, map[string]int32{"x": 3, "y": 4, "r": 0}, NewHost())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got, want := out["r"], int32(3*4+3<<2); got != want {
		t.Errorf("r = %d, want %d", got, want)
	}
}

func TestInterpGCD(t *testing.T) {
	k := simpleGCD()
	if err := Validate(k); err != nil {
		t.Fatalf("validate: %v", err)
	}
	cases := []struct{ a, b, want int32 }{
		{12, 18, 6}, {7, 13, 1}, {100, 75, 25}, {5, 5, 5}, {9, 0, 9},
	}
	for _, c := range cases {
		in := &Interp{}
		out, err := in.Run(k, map[string]int32{"a": c.a, "b": c.b}, NewHost())
		if err != nil {
			t.Fatalf("run gcd(%d,%d): %v", c.a, c.b, err)
		}
		got := out["a"]
		if out["b"] != 0 {
			got = out["b"]
		}
		if got+out["b"] != c.want && got != c.want {
			t.Errorf("gcd(%d,%d) = a:%d b:%d, want %d", c.a, c.b, out["a"], out["b"], c.want)
		}
	}
}

func TestInterpArraySumNested(t *testing.T) {
	// sum over a 2D row-major array with nested counted loops.
	k := NewKernel("sum2d",
		[]Param{Array("m"), In("rows"), In("cols"), InOut("s")},
		Set("s", C(0)),
		Count("i", C(0), V("rows"), 1,
			Count("j", C(0), V("cols"), 1,
				Set("s", Add(V("s"), At("m", Add(Mul(V("i"), V("cols")), V("j"))))),
			),
		),
	)
	if err := Validate(k); err != nil {
		t.Fatalf("validate: %v", err)
	}
	host := NewHost()
	host.Arrays["m"] = []int32{1, 2, 3, 4, 5, 6}
	in := &Interp{}
	out, err := in.Run(k, map[string]int32{"rows": 2, "cols": 3, "s": 0}, host)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out["s"] != 21 {
		t.Errorf("s = %d, want 21", out["s"])
	}
}

func TestInterpConditionalStore(t *testing.T) {
	// clamp each element into [lo, hi].
	k := NewKernel("clamp",
		[]Param{Array("a"), In("n"), In("lo"), In("hi")},
		Count("i", C(0), V("n"), 1,
			Set("v", At("a", V("i"))),
			IfThen(Lt(V("v"), V("lo")), Set("v", V("lo"))),
			IfThen(Gt(V("v"), V("hi")), Set("v", V("hi"))),
			SetElem("a", V("i"), V("v")),
		),
	)
	if err := Validate(k); err != nil {
		t.Fatalf("validate: %v", err)
	}
	host := NewHost()
	host.Arrays["a"] = []int32{-5, 0, 3, 99, 7}
	in := &Interp{}
	if _, err := in.Run(k, map[string]int32{"n": 5, "lo": 0, "hi": 10}, host); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []int32{0, 0, 3, 10, 7}
	for i, w := range want {
		if host.Arrays["a"][i] != w {
			t.Errorf("a[%d] = %d, want %d", i, host.Arrays["a"][i], w)
		}
	}
}

func TestInterpShortCircuit(t *testing.T) {
	// (i < n && a[i] > 0) must not fault when i >= n.
	k := NewKernel("sc",
		[]Param{Array("a"), In("i"), In("n"), InOut("r")},
		IfElse(LAnd(Lt(V("i"), V("n")), Gt(At("a", V("i")), C(0))),
			[]Stmt{Set("r", C(1))},
			[]Stmt{Set("r", C(0))},
		),
	)
	host := NewHost()
	host.Arrays["a"] = []int32{5}
	in := &Interp{}
	out, err := in.Run(k, map[string]int32{"i": 7, "n": 1, "r": -1}, host)
	if err != nil {
		t.Fatalf("short-circuit evaluation faulted: %v", err)
	}
	if out["r"] != 0 {
		t.Errorf("r = %d, want 0", out["r"])
	}
}

func TestInterpStepLimit(t *testing.T) {
	k := NewKernel("inf",
		[]Param{InOut("x")},
		Loop(Eq(C(1), C(1)), Set("x", Add(V("x"), C(1)))),
	)
	in := &Interp{MaxSteps: 1000}
	if _, err := in.Run(k, map[string]int32{"x": 0}, NewHost()); err != ErrStepLimit {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
}

func TestInterpOutOfBounds(t *testing.T) {
	k := NewKernel("oob",
		[]Param{Array("a"), InOut("r")},
		Set("r", At("a", C(10))),
	)
	host := NewHost()
	host.Arrays["a"] = []int32{1, 2}
	in := &Interp{}
	if _, err := in.Run(k, map[string]int32{"r": 0}, host); err == nil {
		t.Error("expected out-of-bounds error")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		k    *Kernel
	}{
		{"read-before-assign", NewKernel("k", []Param{InOut("r")}, Set("r", V("z")))},
		{"array-as-scalar", NewKernel("k", []Param{Array("a"), InOut("r")}, Set("r", V("a")))},
		{"scalar-as-array", NewKernel("k", []Param{In("x"), InOut("r")}, Set("r", At("x", C(0))))},
		{"store-to-scalar", NewKernel("k", []Param{In("x")}, SetElem("x", C(0), C(1)))},
		{"assign-to-array", NewKernel("k", []Param{Array("a")}, Set("a", C(1)))},
		{"dup-param", NewKernel("k", []Param{In("x"), In("x")})},
		{"one-arm-def", NewKernel("k", []Param{In("c"), InOut("r")},
			IfThen(Ne(V("c"), C(0)), Set("t", C(1))),
			Set("r", V("t")))},
		{"loop-body-def", NewKernel("k", []Param{In("c"), InOut("r")},
			Loop(Ne(V("c"), C(0)), Set("t", C(1))),
			Set("r", V("t")))},
	}
	for _, c := range cases {
		if err := Validate(c.k); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestValidateBothArmsDefine(t *testing.T) {
	k := NewKernel("k", []Param{In("c"), InOut("r")},
		IfElse(Ne(V("c"), C(0)),
			[]Stmt{Set("t", C(1))},
			[]Stmt{Set("t", C(2))},
		),
		Set("r", V("t")),
	)
	if err := Validate(k); err != nil {
		t.Errorf("both-arm definition should validate: %v", err)
	}
}

func TestLowerFor(t *testing.T) {
	k := NewKernel("k",
		[]Param{InOut("s"), In("n")},
		Count("i", C(0), V("n"), 1, Set("s", Add(V("s"), V("i")))),
	)
	low := k.LowerFor()
	if len(low.Body) != 2 {
		t.Fatalf("lowered body has %d stmts, want 2 (init + while)", len(low.Body))
	}
	if _, ok := low.Body[0].(*Assign); !ok {
		t.Errorf("first lowered stmt is %T, want *Assign", low.Body[0])
	}
	w, ok := low.Body[1].(*While)
	if !ok {
		t.Fatalf("second lowered stmt is %T, want *While", low.Body[1])
	}
	if len(w.Body) != 2 {
		t.Errorf("while body has %d stmts, want 2 (assign + post)", len(w.Body))
	}
	// Semantics must be preserved.
	for _, n := range []int32{0, 1, 5, 17} {
		i1 := &Interp{}
		o1, err := i1.Run(k, map[string]int32{"s": 0, "n": n}, NewHost())
		if err != nil {
			t.Fatalf("run original: %v", err)
		}
		i2 := &Interp{}
		o2, err := i2.Run(low, map[string]int32{"s": 0, "n": n}, NewHost())
		if err != nil {
			t.Fatalf("run lowered: %v", err)
		}
		if o1["s"] != o2["s"] {
			t.Errorf("n=%d: original %d != lowered %d", n, o1["s"], o2["s"])
		}
	}
}

func TestEvalBinMatchesGo(t *testing.T) {
	// Property: EvalBin agrees with native Go int32 semantics.
	f := func(x, y int32) bool {
		type tc struct {
			op   BinOp
			want int32
		}
		cases := []tc{
			{OpAdd, x + y}, {OpSub, x - y}, {OpMul, x * y},
			{OpAnd, x & y}, {OpOr, x | y}, {OpXor, x ^ y},
			{OpShl, x << (uint32(y) & 31)},
			{OpShr, x >> (uint32(y) & 31)},
			{OpShrU, int32(uint32(x) >> (uint32(y) & 31))},
		}
		for _, c := range cases {
			got, err := EvalBin(c.op, x, y, nil)
			if err != nil || got != c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalBinCompareTotalOrder(t *testing.T) {
	// Property: exactly one of <, ==, > holds; <= == (< or ==); != == !(==).
	f := func(x, y int32) bool {
		get := func(op BinOp) int32 {
			v, err := EvalBin(op, x, y, nil)
			if err != nil {
				panic(err)
			}
			return v
		}
		lt, eq, gt := get(OpLt), get(OpEq), get(OpGt)
		le, ge, ne := get(OpLe), get(OpGe), get(OpNe)
		if lt+eq+gt != 1 {
			return false
		}
		if le != (lt | eq) {
			return false
		}
		if ge != (gt | eq) {
			return false
		}
		if ne != 1-eq {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpStatsCounts(t *testing.T) {
	k := NewKernel("stats",
		[]Param{Array("a"), InOut("s")},
		Set("s", Add(Mul(At("a", C(0)), C(2)), C(1))),
	)
	host := NewHost()
	host.Arrays["a"] = []int32{7}
	st := &OpStats{}
	in := &Interp{Stats: st}
	if _, err := in.Run(k, map[string]int32{"s": 0}, host); err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Mul != 1 {
		t.Errorf("Mul = %d, want 1", st.Mul)
	}
	if st.Arith != 1 {
		t.Errorf("Arith = %d, want 1", st.Arith)
	}
	if st.Loads != 1 {
		t.Errorf("Loads = %d, want 1", st.Loads)
	}
	if st.LocalWr != 1 {
		t.Errorf("LocalWr = %d, want 1", st.LocalWr)
	}
	if st.Total() == 0 {
		t.Error("Total = 0")
	}
}

func TestHostCloneAndEqual(t *testing.T) {
	h := NewHost()
	h.Arrays["a"] = []int32{1, 2, 3}
	h.Arrays["b"] = []int32{4}
	c := h.Clone()
	if !h.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Arrays["a"][0] = 99
	if h.Equal(c) {
		t.Fatal("mutated clone still equal")
	}
	if h.Arrays["a"][0] != 1 {
		t.Fatal("clone aliases original")
	}
}

// TestCompare pins the reference check's rules: a missing live-out is a
// mismatch, extra live-outs are not, and the first differing element in
// array-name order is the one named.
func TestCompare(t *testing.T) {
	ref := NewHost()
	ref.Arrays["a"] = []int32{1, 2, 3}
	ref.Arrays["b"] = []int32{4, 5}
	want := map[string]int32{"s": 7}
	for _, tc := range []struct {
		name string
		outs map[string]int32
		heap func(*Host)
		err  string
	}{
		{"agree, extra live-out", map[string]int32{"s": 7, "t": 1}, func(*Host) {}, ""},
		{"missing live-out", map[string]int32{}, func(*Host) {}, `live-out "s" missing`},
		{"wrong live-out", map[string]int32{"s": 8}, func(*Host) {}, `live-out "s" = 8, reference 7`},
		{"first element in name order", want, func(h *Host) { h.Arrays["b"][0] = 0; h.Arrays["a"][2] = 0 }, "heap a[2] = 0, reference 3"},
		{"short array", want, func(h *Host) { h.Arrays["b"] = h.Arrays["b"][:1] }, "heap b: 1 elements, reference 2"},
		{"missing array", want, func(h *Host) { delete(h.Arrays, "a"); h.Arrays["c"] = nil }, `heap array "a" missing`},
		{"extra array", want, func(h *Host) { h.Arrays["c"] = nil }, "heap holds 3 arrays, reference 2"},
	} {
		got := ref.Clone()
		tc.heap(got)
		err := Compare(want, ref, tc.outs, got)
		if (err == nil) != (tc.err == "") || err != nil && err.Error() != tc.err {
			t.Errorf("%s: Compare = %v, want %q", tc.name, err, tc.err)
		}
	}
}

func TestStringers(t *testing.T) {
	e := Add(Mul(V("x"), C(3)), At("a", V("i")))
	if got := e.String(); got != "((x * 3) + a[i])" {
		t.Errorf("String() = %q", got)
	}
	if OpLAnd.String() != "&&" || OpShrU.String() != ">>>" {
		t.Error("operator names wrong")
	}
	if OpNeg.String() != "-" || OpLNot.String() != "!" {
		t.Error("unary operator names wrong")
	}
	if ScalarIn.String() != "in" || ArrayRef.String() != "array" {
		t.Error("param kind names wrong")
	}
}
