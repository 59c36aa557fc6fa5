package opt

import (
	"testing"
	"testing/quick"

	"cgra/internal/ir"
	"cgra/internal/irtext"
)

// run interprets a kernel and returns live-outs plus the final heap.
func run(t *testing.T, k *ir.Kernel, args map[string]int32, arrays map[string][]int32) (map[string]int32, *ir.Host) {
	t.Helper()
	host := ir.NewHost()
	for name, a := range arrays {
		host.Arrays[name] = append([]int32(nil), a...)
	}
	in := &ir.Interp{}
	out, err := in.Run(k, args, host)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out, host
}

// assertEquivalent checks that a transform preserved semantics on the given
// inputs.
func assertEquivalent(t *testing.T, orig, xform *ir.Kernel, args map[string]int32, arrays map[string][]int32) {
	t.Helper()
	o1, h1 := run(t, orig, args, arrays)
	o2, h2 := run(t, xform, args, arrays)
	for name, v := range o1 {
		if o2[name] != v {
			t.Errorf("live-out %s: original %d, transformed %d", name, v, o2[name])
		}
	}
	if !h1.Equal(h2) {
		t.Error("heaps differ after transform")
	}
}

func TestFoldConstantsBasic(t *testing.T) {
	k := mustParse(t, `kernel k(inout r) { r = 2 + 3 * 4 - (1 << 2); }`)
	folded := FoldConstants(k)
	a, ok := folded.Body[0].(*ir.Assign)
	if !ok {
		t.Fatal("not an assign")
	}
	c, ok := a.Value.(*ir.Const)
	if !ok {
		t.Fatalf("RHS not folded: %s", a.Value)
	}
	if c.Value != 10 {
		t.Errorf("folded to %d, want 10", c.Value)
	}
}

func TestFoldIdentities(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`kernel k(in x, inout r) { r = x + 0; }`, "x"},
		{`kernel k(in x, inout r) { r = x * 1; }`, "x"},
		{`kernel k(in x, inout r) { r = x * 0; }`, "0"},
		{`kernel k(in x, inout r) { r = x & 0; }`, "0"},
		{`kernel k(in x, inout r) { r = 0 + x; }`, "x"},
		{`kernel k(in x, inout r) { r = x >> 0; }`, "x"},
	}
	for _, c := range cases {
		k := FoldConstants(mustParse(t, c.src))
		a := k.Body[0].(*ir.Assign)
		if got := a.Value.String(); got != c.want {
			t.Errorf("%s: folded to %s, want %s", c.src, got, c.want)
		}
	}
}

func TestFoldPreservesSemantics(t *testing.T) {
	src := `
kernel k(in x, in y, inout r) {
	r = (x + 0) * (3 * 4) + (y & 0) + (1 << 3) + x * 1;
}`
	k := mustParse(t, src)
	f := FoldConstants(k)
	prop := func(x, y int32) bool {
		o1, _ := run(t, k, map[string]int32{"x": x, "y": y, "r": 0}, nil)
		o2, _ := run(t, f, map[string]int32{"x": x, "y": y, "r": 0}, nil)
		return o1["r"] == o2["r"]
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFoldLogicalShortCircuitKept(t *testing.T) {
	// Constant folding must not change logical semantics.
	k := mustParse(t, `kernel k(inout r) { r = 1 && 0; d = 1 || 0; r = r + d; }`)
	f := FoldConstants(k)
	o, _ := run(t, f, map[string]int32{"r": 0}, nil)
	if o["r"] != 1 {
		t.Errorf("r = %d, want 1", o["r"])
	}
}

func TestUnrollPreservesTripCounts(t *testing.T) {
	src := `
kernel sum(in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) { s = s + i; i = i + 1; }
}`
	k := mustParse(t, src)
	for _, factor := range []int{2, 3, 4} {
		u := Unroll(k, factor)
		for n := int32(0); n <= 11; n++ {
			o1, _ := run(t, k, map[string]int32{"n": n, "s": 0}, nil)
			o2, _ := run(t, u, map[string]int32{"n": n, "s": 0}, nil)
			if o1["s"] != o2["s"] {
				t.Errorf("factor %d, n=%d: %d != %d", factor, n, o2["s"], o1["s"])
			}
		}
	}
}

func TestUnrollOnlyInnermost(t *testing.T) {
	src := `
kernel k(in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) {
		j = 0;
		while (j < n) { s = s + 1; j = j + 1; }
		i = i + 1;
	}
}`
	k := mustParse(t, src)
	u := Unroll(k, 2)
	// The outer while must NOT contain a guarded copy of itself: its body
	// should hold exactly the inner loop handling plus i update.
	outer := findWhile(u.Body)
	if outer == nil {
		t.Fatal("no outer loop")
	}
	inner := findWhile(outer.Body)
	if inner == nil {
		t.Fatal("no inner loop after unrolling")
	}
	// The inner loop body must contain a guarded duplicate (an If).
	hasIf := false
	for _, s := range inner.Body {
		if _, ok := s.(*ir.If); ok {
			hasIf = true
		}
	}
	if !hasIf {
		t.Error("inner loop not unrolled")
	}
	// Equivalence.
	assertEquivalent(t, k, u, map[string]int32{"n": 5, "s": 0}, nil)
}

func findWhile(stmts []ir.Stmt) *ir.While {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.While:
			return s
		case *ir.If:
			if w := findWhile(s.Then); w != nil {
				return w
			}
			if w := findWhile(s.Else); w != nil {
				return w
			}
		}
	}
	return nil
}

func TestUnrollWithSideExitCondition(t *testing.T) {
	// Data-dependent loop: unrolling must re-check the condition between
	// copies.
	src := `
kernel collatz(inout x, inout steps) {
	steps = 0;
	while (x != 1) {
		if ((x & 1) == 0) { x = x >> 1; } else { x = 3 * x + 1; }
		steps = steps + 1;
	}
}`
	k := mustParse(t, src)
	u := Unroll(k, 2)
	for _, x := range []int32{1, 2, 3, 7, 27} {
		o1, _ := run(t, k, map[string]int32{"x": x, "steps": 0}, nil)
		o2, _ := run(t, u, map[string]int32{"x": x, "steps": 0}, nil)
		if o1["steps"] != o2["steps"] || o1["x"] != o2["x"] {
			t.Errorf("x=%d: (%d,%d) != (%d,%d)", x, o2["x"], o2["steps"], o1["x"], o1["steps"])
		}
	}
}

func TestCSEReplacesRecomputation(t *testing.T) {
	src := `
kernel k(in a, in b, inout r) {
	x = a * b;
	y = a * b;
	r = x + y;
}`
	k := mustParse(t, src)
	c := CSE(k)
	// The second assignment must become y = x.
	a2 := c.Body[1].(*ir.Assign)
	if v, ok := a2.Value.(*ir.VarRef); !ok || v.Name != "x" {
		t.Errorf("second assign not CSE'd: %s", a2.Value)
	}
	assertEquivalent(t, k, c, map[string]int32{"a": 6, "b": 7, "r": 0}, nil)
}

func TestCSEInvalidatesOnWrite(t *testing.T) {
	src := `
kernel k(in a, inout b, inout r) {
	x = a + b;
	b = b + 1;
	y = a + b;
	r = x + y;
}`
	k := mustParse(t, src)
	c := CSE(k)
	// y must stay a recomputation: b changed in between.
	a3 := c.Body[2].(*ir.Assign)
	if _, ok := a3.Value.(*ir.VarRef); ok {
		t.Error("CSE reused a value across an invalidating write")
	}
	assertEquivalent(t, k, c, map[string]int32{"a": 3, "b": 4, "r": 0}, nil)
}

func TestCSESkipsLoads(t *testing.T) {
	// Loads are never reused: a store may intervene.
	src := `
kernel k(array m, inout r) {
	x = m[0];
	m[0] = x + 1;
	y = m[0];
	r = x + y;
}`
	k := mustParse(t, src)
	c := CSE(k)
	assertEquivalent(t, k, c, map[string]int32{"r": 0}, map[string][]int32{"m": {5}})
}

func TestCSEIfIsolation(t *testing.T) {
	src := `
kernel k(in a, in c, inout r) {
	x = a * a;
	if (c > 0) { x = 1; }
	y = a * a;
	r = x + y;
}`
	k := mustParse(t, src)
	c := CSE(k)
	for _, cv := range []int32{0, 1} {
		assertEquivalent(t, k, c, map[string]int32{"a": 5, "c": cv, "r": 0}, nil)
	}
	// y must NOT be replaced by x (x may have changed in the if).
	a3 := c.Body[2].(*ir.Assign)
	if v, ok := a3.Value.(*ir.VarRef); ok && v.Name == "x" {
		t.Error("CSE reused a value overwritten in a conditional")
	}
}

func TestCSELoopIsolation(t *testing.T) {
	src := `
kernel k(in a, in n, inout r) {
	x = a * a;
	i = 0;
	while (i < n) { x = x + 1; i = i + 1; }
	y = a * a;
	r = x + y;
}`
	k := mustParse(t, src)
	c := CSE(k)
	assertEquivalent(t, k, c, map[string]int32{"a": 3, "n": 4, "r": 0}, nil)
}

// TestCSEAcrossJoins pins what the value table keeps across an if, a while
// and a for: an expression survives the join only when no arm or body
// assigns its holder or an operand. Each kernel ends in y = a + b (or
// i + a); reuse says whether CSE may turn it into a read of x, and every
// rewrite is run against the original.
func TestCSEAcrossJoins(t *testing.T) {
	cases := []struct {
		name  string
		body  string
		reuse bool
	}{
		{"arms write neither", `x = a + b; if (c > 0) { r = 1; } else { r = 2; } y = a + b;`, true},
		{"then arm writes an operand", `x = a + b; if (c > 0) { a = 7; } else { r = 2; } y = a + b;`, false},
		{"else arm writes an operand", `x = a + b; if (c > 0) { r = 1; } else { a = 7; } y = a + b;`, false},
		{"else arm writes the holder", `x = a + b; if (c > 0) { r = 1; } else { x = 7; } y = a + b;`, false},
		{"nested if in the else arm writes an operand", `x = a + b; if (c > 0) { r = 1; } else { if (n > 0) { b = 3; } } y = a + b;`, false},
		{"arm reuses and rewrites the value", `x = a + b; if (c > 0) { z = a + b; b = z + 1; } y = a + b;`, false},
		{"while body leaves the operands", `x = a + b; i = 0; while (i < n) { r = r + 1; i = i + 1; } y = a + b;`, true},
		{"while body writes an operand", `x = a + b; i = 0; while (i < n) { b = b + 1; i = i + 1; } y = a + b;`, false},
		{"for post writes an operand", `i = 0; x = i + a; for (i = 0; i < n; i = i + 1) { r = r + 1; } y = i + a;`, false},
	}
	for _, tc := range cases {
		k := mustParse(t, "kernel k(in a, in b, in c, in n, inout r) { r = 0; "+tc.body+" r = r + x + y; }")
		out := CSE(k)
		y := out.Body[len(out.Body)-2].(*ir.Assign)
		if _, reused := y.Value.(*ir.VarRef); reused != tc.reuse {
			t.Errorf("%s: y = %s, want reuse %v", tc.name, y.Value, tc.reuse)
		}
		for _, c := range []int32{0, 1} {
			for _, n := range []int32{0, 2} {
				assertEquivalent(t, k, out, map[string]int32{"a": 5, "b": 9, "c": c, "n": n, "r": 0}, nil)
			}
		}
	}
}

func TestApplyValidates(t *testing.T) {
	k := mustParse(t, `kernel k(in a, inout r) { r = a * 2 + a * 2; }`)
	out, err := Apply(k, Options{UnrollFactor: 2, CSE: true, ConstFold: true})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	assertEquivalent(t, k, out, map[string]int32{"a": 9, "r": 0}, nil)
}

func TestApplyPropertyRandomInputs(t *testing.T) {
	src := `
kernel mix(array a, in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) {
		v = a[i & 7];
		w = a[i & 7];
		if (v > 0) { s = s + v * 2 + w; } else { s = s - v; }
		i = i + 1;
	}
}`
	k := mustParse(t, src)
	out, err := Apply(k, Options{UnrollFactor: 3, CSE: true, ConstFold: true})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed uint8, n uint8) bool {
		arr := make([]int32, 8)
		for i := range arr {
			arr[i] = int32(seed)*int32(i+1) - 300
		}
		args := map[string]int32{"n": int32(n % 32), "s": 0}
		o1, _ := run(t, k, args, map[string][]int32{"a": arr})
		o2, _ := run(t, out, args, map[string][]int32{"a": arr})
		return o1["s"] == o2["s"]
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func mustParse(t testing.TB, src string) *ir.Kernel {
	t.Helper()
	k, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return k
}
