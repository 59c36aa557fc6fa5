package opt

import (
	"strings"
	"testing"

	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/workload"
)

const progSrc = `
kernel main(array data, in n, inout total) {
	total = 0;
	i = 0;
	while (i < n) {
		v = data[i];
		clamp(v, 0, 100);
		total = total + v;
		i = i + 1;
	}
	scale(data, n, 2);
}

kernel clamp(inout x, in lo, in hi) {
	if (x < lo) { x = lo; }
	if (x > hi) { x = hi; }
}

kernel scale(array a, in n, in f) {
	i = 0;
	while (i < n) {
		a[i] = a[i] * f;
		i = i + 1;
	}
}`

func mustProgram(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := irtext.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runKernel(t *testing.T, k *ir.Kernel, lib map[string]*ir.Kernel,
	args map[string]int32, arrays map[string][]int32) (map[string]int32, *ir.Host) {
	t.Helper()
	host := ir.NewHost()
	for name, a := range arrays {
		host.Arrays[name] = append([]int32(nil), a...)
	}
	in := &ir.Interp{Library: lib}
	out, err := in.Run(k, args, host)
	if err != nil {
		t.Fatalf("run %s: %v", k.Name, err)
	}
	return out, host
}

func TestInlineMatchesCallSemantics(t *testing.T) {
	prog := mustProgram(t, progSrc)
	flat, err := Inline(prog)
	if err != nil {
		t.Fatalf("inline: %v", err)
	}
	// The flattened kernel must contain no calls.
	for _, name := range []string{"clamp", "scale"} {
		if strings.Contains(irtext.Print(flat), name+"(") {
			t.Errorf("call to %s survived inlining:\n%s", name, irtext.Print(flat))
		}
	}
	data := []int32{-5, 50, 200, 7}
	args := map[string]int32{"n": 4, "total": 0}
	wantOut, wantHost := runKernel(t, prog.EntryKernel(), prog.Kernels, args,
		map[string][]int32{"data": data})
	gotOut, gotHost := runKernel(t, flat, nil, args,
		map[string][]int32{"data": data})
	if wantOut["total"] != gotOut["total"] {
		t.Errorf("total: called %d, inlined %d", wantOut["total"], gotOut["total"])
	}
	if !wantHost.Equal(gotHost) {
		t.Errorf("heaps differ: %v vs %v", wantHost.Arrays["data"], gotHost.Arrays["data"])
	}
	// Expected semantics: clamp(-5,50,200->100,7) summed = 0+50+100+7; then doubled.
	if gotOut["total"] != 157 {
		t.Errorf("total = %d, want 157", gotOut["total"])
	}
	want := []int32{-10, 100, 400, 14}
	for i, w := range want {
		if gotHost.Arrays["data"][i] != w {
			t.Errorf("data[%d] = %d, want %d", i, gotHost.Arrays["data"][i], w)
		}
	}
}

func TestInlineNestedCalls(t *testing.T) {
	prog := mustProgram(t, `
kernel main(inout r) {
	outer(r);
}
kernel outer(inout x) {
	inner(x);
	x = x + 1;
}
kernel inner(inout y) {
	y = y * 2;
}`)
	flat, err := Inline(prog)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := runKernel(t, flat, nil, map[string]int32{"r": 10}, nil)
	if out["r"] != 21 {
		t.Errorf("r = %d, want 21", out["r"])
	}
}

func TestInlineNameHygiene(t *testing.T) {
	// Caller and callee both use "i" and "v": no capture allowed.
	prog := mustProgram(t, `
kernel main(array a, in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) {
		v = a[i];
		addtwice(v, s);
		i = i + 1;
	}
}
kernel addtwice(in v, inout s) {
	i = 0;
	while (i < 2) {
		s = s + v;
		i = i + 1;
	}
}`)
	flat, err := Inline(prog)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := runKernel(t, flat, nil, map[string]int32{"n": 3, "s": 0},
		map[string][]int32{"a": {1, 2, 3}})
	if out["s"] != 12 {
		t.Errorf("s = %d, want 12 (each element added twice)", out["s"])
	}
}

func TestRecursionRejected(t *testing.T) {
	_, err := irtext.ParseProgram(`
kernel main(inout r) { main(r); }`)
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("recursion not rejected: %v", err)
	}
	_, err = irtext.ParseProgram(`
kernel a(inout r) { b(r); }
kernel b(inout r) { a(r); }`)
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("mutual recursion not rejected: %v", err)
	}
}

func TestCallValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown-callee", `kernel main(inout r) { nope(r); }`},
		{"arg-count", `kernel main(inout r) { f(r, 1); } kernel f(inout x) { x = 1; }`},
		{"inout-needs-var", `kernel main(inout r) { f(1 + 2); } kernel f(inout x) { x = 1; }`},
		{"array-needs-array", `kernel main(inout r) { f(r); } kernel f(array a) { a[0] = 1; }`},
		{"scalar-gets-array", `kernel main(array m) { f(m); } kernel f(inout x) { x = 1; }`},
	}
	for _, c := range cases {
		if _, err := irtext.ParseProgram(c.src); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSingleKernelRejectsCalls(t *testing.T) {
	// Parse (single-kernel) must reject a kernel containing calls because
	// they cannot be resolved.
	_, err := irtext.Parse(`kernel main(inout r) { f(r); }`)
	if err == nil {
		t.Error("single-kernel parse accepted an unresolvable call")
	}
}

// TestInlineValidatesClosure: Inline validates the entry's call closure,
// not the whole library. A broken kernel nothing calls does not fail fir,
// but fails its own inlining; inside the closure an unknown callee and
// recursion are rejected as before.
func TestInlineValidatesClosure(t *testing.T) {
	fir := workload.FIR().Kernel
	broken := ir.NewKernel("broken", []ir.Param{ir.InOut("r")}, ir.Set("r", ir.V("undefined")))
	lib := map[string]*ir.Kernel{fir.Name: fir, broken.Name: broken}
	if _, err := Inline(&ir.Program{Kernels: lib, Entry: fir.Name}); err != nil {
		t.Errorf("an invalid kernel beside fir failed fir: %v", err)
	}
	if _, err := Inline(&ir.Program{Kernels: lib, Entry: broken.Name}); err == nil ||
		!strings.Contains(err.Error(), `variable "undefined" may be read before assignment`) {
		t.Errorf("the invalid kernel inlined: %v", err)
	}

	call := func(callee string) *ir.Call { return &ir.Call{Callee: callee, Args: []ir.Expr{ir.V("r")}} }
	kernel := func(name string, body ...ir.Stmt) *ir.Kernel {
		return ir.NewKernel(name, []ir.Param{ir.InOut("r")}, body...)
	}
	unknown := map[string]*ir.Kernel{"main": kernel("main", call("mid")), "mid": kernel("mid", call("nope"))}
	_, err := Inline(&ir.Program{Kernels: unknown, Entry: "main"})
	if want := `opt: kernel mid: call to unknown kernel "nope"`; err == nil || err.Error() != want {
		t.Errorf("unknown callee in the closure: got %v, want %s", err, want)
	}
	recursive := map[string]*ir.Kernel{
		"main": kernel("main", call("a")),
		"a":    kernel("a", call("b")),
		"b":    kernel("b", call("a")),
	}
	_, err = Inline(&ir.Program{Kernels: recursive, Entry: "main"})
	if want := "opt: program: recursive call chain through "; err == nil || !strings.HasPrefix(err.Error(), want) ||
		!strings.HasSuffix(err.Error(), "(cannot inline)") {
		t.Errorf("recursion in the closure: got %v, want %s...", err, want)
	}
}
