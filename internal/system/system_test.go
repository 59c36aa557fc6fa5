package system

import (
	"testing"

	"cgra/internal/arch"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/pipeline"
)

func newSystem(t *testing.T, threshold int64) *System {
	t.Helper()
	comp, err := arch.HomogeneousMesh(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	return New(comp, pipeline.Defaults(), threshold)
}

const dotSrc = `
kernel dot(array a, array b, in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) { s = s + a[i] * b[i]; i = i + 1; }
}`

func dotHost() *ir.Host {
	h := ir.NewHost()
	h.Arrays["a"] = []int32{1, 2, 3, 4, 5, 6, 7, 8}
	h.Arrays["b"] = []int32{8, 7, 6, 5, 4, 3, 2, 1}
	return h
}

func TestOnlineSynthesisTransition(t *testing.T) {
	s := newSystem(t, 15_000) // a few host runs before synthesis
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	args := map[string]int32{"n": 8, "s": 0}
	var want int32 = 1*8 + 2*7 + 3*6 + 4*5 + 5*4 + 6*3 + 7*2 + 8*1

	sawSynthesis := false
	onCGRA := 0
	for i := 0; i < 10; i++ {
		res, err := s.Invoke("dot", args, dotHost())
		if err != nil {
			t.Fatalf("invocation %d: %v", i, err)
		}
		// Results must be identical across the host->CGRA transition.
		if res.LiveOuts["s"] != want {
			t.Fatalf("invocation %d: s = %d, want %d (onCGRA=%v)", i, res.LiveOuts["s"], want, res.OnCGRA)
		}
		if res.Synthesized {
			sawSynthesis = true
			// Synthesis runs in the background; wait for it to land so the
			// remaining invocations exercise the accelerated path.
			s.Quiesce()
		}
		if res.OnCGRA {
			onCGRA++
		}
	}
	if !sawSynthesis {
		t.Fatal("threshold never triggered synthesis")
	}
	if onCGRA == 0 {
		t.Fatal("no invocation ran on the CGRA after synthesis")
	}
	if !s.Synthesized("dot") {
		t.Fatal("dispatch table not patched")
	}
	st := s.Stats()
	if st.AMIDARRuns == 0 || st.CGRARuns == 0 {
		t.Fatalf("expected a mix of host and CGRA runs: %+v", st)
	}
	if st.AMIDARRuns+st.CGRARuns != st.Invocations {
		t.Fatalf("run accounting inconsistent: %+v", st)
	}
	// The accelerated runs must be far cheaper than the host runs.
	hostPer := st.AMIDARCycles / st.AMIDARRuns
	cgraPer := st.CGRACycles / st.CGRARuns
	if cgraPer >= hostPer {
		t.Errorf("CGRA per-run cycles (%d) not below host (%d)", cgraPer, hostPer)
	}
	if len(st.SynthesizedSeq) != 1 || st.SynthesizedSeq[0] != "dot" {
		t.Errorf("synthesized list = %v", st.SynthesizedSeq)
	}
}

func TestColdKernelStaysOnHost(t *testing.T) {
	s := newSystem(t, 1_000_000)
	if err := s.Register(mustParse(t, `kernel tiny(inout r) { r = r + 1; }`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, err := s.Invoke("tiny", map[string]int32{"r": int32(i)}, ir.NewHost())
		if err != nil {
			t.Fatal(err)
		}
		if res.OnCGRA {
			t.Fatal("cold kernel must stay on the host")
		}
	}
	if s.Synthesized("tiny") {
		t.Error("cold kernel synthesized")
	}
}

func TestSystemWithCalls(t *testing.T) {
	s := newSystem(t, 2_000)
	prog, err := irtext.ParseProgram(`
kernel main(array a, in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) {
		v = a[i];
		abs(v);
		s = s + v;
		i = i + 1;
	}
}
kernel abs(inout x) { if (x < 0) { x = 0 - x; } }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range prog.Kernels {
		if err := s.Register(k); err != nil {
			t.Fatal(err)
		}
	}
	host := func() *ir.Host {
		h := ir.NewHost()
		h.Arrays["a"] = []int32{-1, 2, -3, 4}
		return h
	}
	var results []int32
	for i := 0; i < 4; i++ {
		res, err := s.Invoke("main", map[string]int32{"n": 4, "s": 0}, host())
		if err != nil {
			t.Fatalf("invocation %d: %v", i, err)
		}
		if res.Synthesized {
			s.Quiesce()
		}
		results = append(results, res.LiveOuts["s"])
	}
	for i, r := range results {
		if r != 10 {
			t.Errorf("invocation %d: s = %d, want 10", i, r)
		}
	}
	if !s.Synthesized("main") {
		t.Error("main (with inlined call) never synthesized")
	}
}

func TestProfileOrdering(t *testing.T) {
	s := newSystem(t, 1_000_000_000)
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(mustParse(t, `kernel tiny(inout r) { r = r + 1; }`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Invoke("dot", map[string]int32{"n": 8, "s": 0}, dotHost()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Invoke("tiny", map[string]int32{"r": 0}, ir.NewHost()); err != nil {
		t.Fatal(err)
	}
	prof := s.Profile()
	if len(prof) != 2 || prof[0].Name != "dot" {
		t.Errorf("profile = %+v, want dot heaviest", prof)
	}
}

func TestUnknownKernel(t *testing.T) {
	s := newSystem(t, 1000)
	if _, err := s.Invoke("nope", nil, ir.NewHost()); err == nil {
		t.Error("unknown kernel accepted")
	}
	if err := s.Register(mustParse(t, `kernel k(inout r) { r = 1; }`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(mustParse(t, `kernel k(inout r) { r = 2; }`)); err == nil {
		t.Error("duplicate registration accepted")
	}
}

// TestPerKernelWatchdogBudget: a kernel that reached the CGRA through
// profiling gets a watchdog budget derived from its observed AMIDAR cost —
// far tighter than the global cap — while a force-synthesized kernel with
// no profile keeps the cap.
func TestPerKernelWatchdogBudget(t *testing.T) {
	s := newSystem(t, 15_000)
	defer s.Close()
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		res, err := s.Invoke("dot", map[string]int32{"n": 8, "s": 0}, dotHost())
		if err != nil {
			t.Fatal(err)
		}
		if res.Synthesized {
			s.Quiesce()
		}
	}
	ent := s.state.Load().compiled["dot"]
	if ent == nil {
		t.Fatal("dot not synthesized")
	}
	cap := s.WatchdogCycles
	if ent.maxCycles <= 0 || ent.maxCycles >= cap {
		t.Errorf("profiled budget = %d, want derived value below the %d cap", ent.maxCycles, cap)
	}
	factor := watchdogFactor * s.state.Load().kernels["dot"].hostMax.Load()
	if want := max64(factor, 50_000); ent.maxCycles != want {
		t.Errorf("budget = %d, want watchdogFactor×hostMax clamped = %d", ent.maxCycles, want)
	}

	// No profile: the forced synthesis path keeps the global cap.
	s2 := newSystem(t, 15_000)
	defer s2.Close()
	if err := s2.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Synthesize("dot"); err != nil {
		t.Fatal(err)
	}
	if got := s2.state.Load().compiled["dot"].maxCycles; got != s2.WatchdogCycles {
		t.Errorf("unprofiled budget = %d, want the %d cap", got, s2.WatchdogCycles)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func mustParse(t testing.TB, src string) *ir.Kernel {
	t.Helper()
	k, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return k
}
