package sim

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"cgra/internal/arch"
	"cgra/internal/cdfg"
	"cgra/internal/ctxgen"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/sched"
)

func compile(t *testing.T, src string, comp *arch.Composition) (*ir.Kernel, *ctxgen.Program) {
	t.Helper()
	k := mustParse(t, src)
	g, err := cdfg.Build(k, cdfg.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run(g, comp, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ctxgen.Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	return k, p
}

func mesh(t *testing.T, n int) *arch.Composition {
	t.Helper()
	c, err := arch.HomogeneousMesh(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunStraightLine(t *testing.T) {
	_, p := compile(t, `kernel k(in x, in y, inout r) { r = x * y - 3; }`, mesh(t, 4))
	m := New(p)
	res, err := m.Run(map[string]int32{"x": 6, "y": 7, "r": 0}, ir.NewHost())
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveOuts["r"] != 39 {
		t.Errorf("r = %d, want 39", res.LiveOuts["r"])
	}
	if res.RunCycles <= 0 || res.TotalCycles() <= res.RunCycles {
		t.Error("cycle accounting wrong")
	}
}

func TestRunEnergyAccumulates(t *testing.T) {
	_, p := compile(t, `kernel k(in x, inout r) { r = x * x; }`, mesh(t, 4))
	res, err := New(p).Run(map[string]int32{"x": 5, "r": 0}, ir.NewHost())
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy <= 0 {
		t.Error("no energy recorded")
	}
}

func TestRunMissingLiveIn(t *testing.T) {
	_, p := compile(t, `kernel k(in x, inout r) { r = x; }`, mesh(t, 4))
	if _, err := New(p).Run(map[string]int32{"r": 0}, ir.NewHost()); err == nil {
		t.Error("missing live-in accepted")
	}
}

func TestRunCycleLimit(t *testing.T) {
	// A loop that never terminates must hit the cycle limit.
	_, p := compile(t, `
kernel k(inout r) {
	r = 0;
	i = 0;
	while (i < 1) { r = r + 1; }
}`, mesh(t, 4))
	m := New(p)
	m.MaxCycles = 1000
	if _, err := m.Run(map[string]int32{"r": 0}, ir.NewHost()); err == nil {
		t.Error("non-terminating loop did not hit the cycle limit")
	}
}

// TestNegativeBudgetMeansDefault pins one cycle-budget rule for every walk:
// a zero or negative budget means the 500M default, so a short kernel with
// a negative Machine.MaxCycles or RunBatch limit completes instead of
// failing its watchdog at cycle 0.
func TestNegativeBudgetMeansDefault(t *testing.T) {
	_, p := compile(t, `
kernel k(in n, inout r) {
	r = 0;
	for (i = 0; i < n; i = i + 1) { r = r + i; }
}`, mesh(t, 4))
	args := map[string]int32{"n": 5, "r": 0}
	check := func(walk string, res *Result, err error) {
		t.Helper()
		switch {
		case err != nil:
			t.Errorf("%s with budget -1: %v", walk, err)
		case res.LiveOuts["r"] != 10:
			t.Errorf("%s with budget -1: r = %d, want 10", walk, res.LiveOuts["r"])
		}
	}
	m := New(p)
	m.MaxCycles = -1
	res, err := m.Run(args, ir.NewHost())
	check("plain walk", res, err)

	m = New(p)
	m.MaxCycles = -1
	AttachCounters(m)
	res, err = m.Run(args, ir.NewHost())
	check("hooked walk", res, err)

	eng, err := Predecode(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range eng.RunBatch(context.Background(), -1, []BatchRequest{{Args: args, Host: ir.NewHost()}}) {
		check(fmt.Sprintf("RunBatch lane %d", i), l.Res, l.Err)
	}
}

func TestRunDMAFaultSurfaces(t *testing.T) {
	_, p := compile(t, `kernel k(array a, inout r) { r = a[5]; }`, mesh(t, 4))
	host := ir.NewHost()
	host.Arrays["a"] = []int32{1, 2}
	if _, err := New(p).Run(map[string]int32{"r": 0}, host); err == nil {
		t.Error("out-of-bounds DMA access did not fault")
	}
}

func TestRunTraceCallback(t *testing.T) {
	_, p := compile(t, `kernel k(in x, inout r) { r = x + 1; }`, mesh(t, 4))
	m := New(p)
	traced := 0
	m.Probe = func(ev Event) {
		if ev.Kind == EvCycle {
			traced++
		}
	}
	res, err := m.Run(map[string]int32{"x": 1, "r": 0}, ir.NewHost())
	if err != nil {
		t.Fatal(err)
	}
	if int64(traced) != res.RunCycles {
		t.Errorf("%d cycle events, run took %d cycles", traced, res.RunCycles)
	}
}

func TestRunMatchesInterpreterProperty(t *testing.T) {
	// Property test: for random inputs, the machine and the interpreter
	// agree on a kernel exercising predication, loops and DMA.
	src := `
kernel k(array a, in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) {
		v = a[i];
		if (v < 0) { v = 0 - v; }
		if (v > 100) { v = v - 100; } else { v = v + 1; }
		s = s + v;
		i = i + 1;
	}
}`
	k, p := compile(t, src, mesh(t, 9))
	prop := func(vals [8]int16, n uint8) bool {
		size := int(n) % 9
		arr := make([]int32, 8)
		for i := range arr {
			arr[i] = int32(vals[i])
		}
		hostSim := ir.NewHost()
		hostSim.Arrays["a"] = append([]int32(nil), arr...)
		hostRef := hostSim.Clone()

		simRes, err := New(p).Run(map[string]int32{"n": int32(size), "s": 0}, hostSim)
		if err != nil {
			return false
		}
		interp := &ir.Interp{}
		refOut, err := interp.Run(k, map[string]int32{"n": int32(size), "s": 0}, hostRef)
		if err != nil {
			return false
		}
		return simRes.LiveOuts["s"] == refOut["s"]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRunRepeatedInvocations(t *testing.T) {
	// The machine must be reusable: consecutive runs see fresh state.
	_, p := compile(t, `
kernel acc(array a, in n, inout s) {
	i = 0;
	while (i < n) { s = s + a[i]; i = i + 1; }
}`, mesh(t, 4))
	m := New(p)
	for trial := int32(1); trial <= 3; trial++ {
		host := ir.NewHost()
		host.Arrays["a"] = []int32{trial, trial, trial}
		res, err := m.Run(map[string]int32{"n": 3, "s": 10}, host)
		if err != nil {
			t.Fatal(err)
		}
		if want := 10 + 3*trial; res.LiveOuts["s"] != want {
			t.Errorf("trial %d: s = %d, want %d", trial, res.LiveOuts["s"], want)
		}
	}
}

func TestRunZeroTripLoop(t *testing.T) {
	_, p := compile(t, `
kernel k(array a, in n, inout s) {
	s = 7;
	i = 0;
	while (i < n) { s = a[i]; i = i + 1; }
}`, mesh(t, 4))
	host := ir.NewHost()
	host.Arrays["a"] = []int32{42}
	res, err := New(p).Run(map[string]int32{"n": 0, "s": 7}, host)
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveOuts["s"] != 7 {
		t.Errorf("zero-trip loop: s = %d, want 7", res.LiveOuts["s"])
	}
}

func TestRunPredicatedDMANotExecuted(t *testing.T) {
	// A predicated-off load must not fault even on a bad index.
	_, p := compile(t, `
kernel k(array a, in i, in n, inout r) {
	r = 0;
	if (i < n && a[i] > 0) { r = 1; }
}`, mesh(t, 4))
	host := ir.NewHost()
	host.Arrays["a"] = []int32{1}
	res, err := New(p).Run(map[string]int32{"i": 1000, "n": 1, "r": -1}, host)
	if err != nil {
		t.Fatalf("squashed DMA still executed: %v", err)
	}
	if res.LiveOuts["r"] != 0 {
		t.Errorf("r = %d, want 0", res.LiveOuts["r"])
	}
}

func TestTransferCyclesMatchProtocol(t *testing.T) {
	_, p := compile(t, `kernel k(in a, in b, in c, inout r) { r = a + b + c; }`, mesh(t, 4))
	res, err := New(p).Run(map[string]int32{"a": 1, "b": 2, "c": 3, "r": 0}, ir.NewHost())
	if err != nil {
		t.Fatal(err)
	}
	// 4 live-ins (a, b, c, r), 1 live-out (r), 2 cycles each (§IV-A3).
	if res.TransferCycles != 2*(4+1) {
		t.Errorf("transfer cycles = %d, want 10", res.TransferCycles)
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
