package irtext

import (
	"strings"
	"testing"

	"cgra/internal/ir"
)

func TestParseMinimal(t *testing.T) {
	k, err := Parse(`kernel k(inout r) { r = 1 + 2 * 3; }`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out := run(t, k, map[string]int32{"r": 0}, nil)
	if out["r"] != 7 {
		t.Errorf("r = %d, want 7 (precedence)", out["r"])
	}
}

func mustParse(t testing.TB, src string) *ir.Kernel {
	t.Helper()
	k, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func run(t *testing.T, k *ir.Kernel, args map[string]int32, arrays map[string][]int32) map[string]int32 {
	t.Helper()
	host := ir.NewHost()
	for name, a := range arrays {
		host.Arrays[name] = a
	}
	in := &ir.Interp{}
	out, err := in.Run(k, args, host)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out
}

func TestParsePrecedence(t *testing.T) {
	cases := []struct {
		expr string
		want int32
	}{
		{"2 + 3 * 4", 14},
		{"(2 + 3) * 4", 20},
		{"1 << 3 + 1", 16},    // + binds tighter than <<
		{"7 & 3 == 3", 1},     // == binds tighter than &: 7 & (3==3) = 7 & 1
		{"10 - 4 - 3", 3},     // left associative
		{"1 | 2 ^ 2 & 3", 1},  // & then ^ then |
		{"-3 + 5", 2},         // unary minus
		{"~0", -1},            // bitwise not
		{"!0", 1},             // logical not
		{"!5", 0},             //
		{"16 >>> 2", 4},       // logical shift
		{"-16 >> 2", -4},      // arithmetic shift
		{"0x10 + 1", 17},      // hex literal
		{"1 < 2 && 3 < 4", 1}, // logical and over compares
		{"1 > 2 || 3 < 4", 1}, // logical or
		{"1 > 2 || 3 > 4", 0}, //
		{"5 == 5", 1},         //
		{"5 != 5", 0},         //
	}
	for _, c := range cases {
		src := "kernel k(inout r) { r = " + c.expr + "; }"
		k, err := Parse(src)
		if err != nil {
			t.Errorf("%q: parse error: %v", c.expr, err)
			continue
		}
		out := run(t, k, map[string]int32{"r": 0}, nil)
		if out["r"] != c.want {
			t.Errorf("%q = %d, want %d", c.expr, out["r"], c.want)
		}
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
// sum of even elements
kernel evensum(array a, in n, inout s) {
	s = 0;
	for (i = 0; i < n; i = i + 1) {
		v = a[i];
		if ((v & 1) == 0) {
			s = s + v;
		} else {
			s = s - 1;
		}
	}
}`
	k, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out := run(t, k, map[string]int32{"n": 5, "s": 0},
		map[string][]int32{"a": {2, 3, 4, 5, 6}})
	if want := int32(2 + 4 + 6 - 2); out["s"] != want {
		t.Errorf("s = %d, want %d", out["s"], want)
	}
}

func TestParseNestedWhileAndElseIf(t *testing.T) {
	src := `
kernel collatzish(inout x, inout steps) {
	steps = 0;
	while (x != 1 && steps < 1000) {
		if ((x & 1) == 0) {
			x = x >> 1;
		} else if (x < 100) {
			x = 3 * x + 1;
		} else {
			x = x - 1;
		}
		steps = steps + 1;
	}
}`
	k, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out := run(t, k, map[string]int32{"x": 6, "steps": 0}, nil)
	if out["x"] != 1 {
		t.Errorf("x = %d, want 1", out["x"])
	}
	if out["steps"] != 8 { // 6→3→10→5→16→8→4→2→1
		t.Errorf("steps = %d, want 8", out["steps"])
	}
}

func TestParseArrayStore(t *testing.T) {
	src := `
kernel rev(array a, array b, in n) {
	for (i = 0; i < n; i = i + 1) {
		b[n - 1 - i] = a[i];
	}
}`
	k, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	host := ir.NewHost()
	host.Arrays["a"] = []int32{1, 2, 3, 4}
	host.Arrays["b"] = make([]int32, 4)
	in := &ir.Interp{}
	if _, err := in.Run(k, map[string]int32{"n": 4}, host); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []int32{4, 3, 2, 1}
	for i, w := range want {
		if host.Arrays["b"][i] != w {
			t.Errorf("b[%d] = %d, want %d", i, host.Arrays["b"][i], w)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `
kernel k(inout r) {
	/* block
	   comment */
	r = 1; // line comment
}`
	if _, err := Parse(src); err != nil {
		t.Fatalf("parse: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"no-kernel", `module k() {}`, `"kernel"`},
		{"bad-param-kind", `kernel k(out r) {}`, "parameter kind"},
		{"missing-semi", `kernel k(inout r) { r = 1 }`, `";"`},
		{"unterminated-block", `kernel k(inout r) { r = 1;`, "end of input"},
		{"bad-expr", `kernel k(inout r) { r = ; }`, "expected expression"},
		{"undefined-var", `kernel k(inout r) { r = z; }`, "before assignment"},
		{"trailing", `kernel k(inout r) { r = 1; } extra`, "trailing"},
		{"unterminated-comment", `kernel k(inout r) { /* r = 1; }`, "unterminated"},
		{"bad-char", `kernel k(inout r) { r = 1 $ 2; }`, "unexpected character"},
		{"div-unsupported", `kernel k(inout r) { r = 4 / 2; }`, ""},
		// A lexical error anywhere wins over a parse error before it.
		{"parse-then-comment", "kernel k(out r) {}\n\n/* never closed", "3:15: unterminated block comment"},
		{"parse-then-literal", "kernel k(inout r) { r = ; }\nr = 99999999999;", "2:5: bad integer literal"},
		{"lex-after-kernel", "kernel k(inout r) { r = 1; }\n$", "2:1: unexpected character"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: expected parse error", c.name)
			continue
		}
		if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestParseNeverPanics(t *testing.T) {
	// The parser's contract is error-returning: malformed input must come
	// back as an error, never a panic (there is no Must variant anymore).
	for _, src := range []string{"not a kernel", "", "kernel", "kernel k(", "kernel k(in x) {"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted malformed input", src)
		}
	}
}

func TestParseMatchesBuilder(t *testing.T) {
	// The same kernel through both front ends must behave identically.
	parsed := mustParse(t, `
kernel dot(array a, array b, in n, inout s) {
	s = 0;
	for (i = 0; i < n; i = i + 1) {
		s = s + a[i] * b[i];
	}
}`)
	built := ir.NewKernel("dot",
		[]ir.Param{ir.Array("a"), ir.Array("b"), ir.In("n"), ir.InOut("s")},
		ir.Set("s", ir.C(0)),
		ir.Count("i", ir.C(0), ir.V("n"), 1,
			ir.Set("s", ir.Add(ir.V("s"), ir.Mul(ir.At("a", ir.V("i")), ir.At("b", ir.V("i")))))),
	)
	arrays := map[string][]int32{"a": {1, 2, 3}, "b": {4, 5, 6}}
	args := map[string]int32{"n": 3, "s": 0}
	hostA := ir.NewHost()
	hostB := ir.NewHost()
	for name, a := range arrays {
		hostA.Arrays[name] = append([]int32(nil), a...)
		hostB.Arrays[name] = append([]int32(nil), a...)
	}
	i1, i2 := &ir.Interp{}, &ir.Interp{}
	o1, err := i1.Run(parsed, args, hostA)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := i2.Run(built, map[string]int32{"n": 3, "s": 0}, hostB)
	if err != nil {
		t.Fatal(err)
	}
	if o1["s"] != o2["s"] || o1["s"] != 32 {
		t.Errorf("parsed %d, built %d, want 32", o1["s"], o2["s"])
	}
}
