package system

import (
	"context"
	"errors"
	"testing"
	"time"

	"cgra/internal/chaos"
	"cgra/internal/fault"
)

// TestCompileHookErrorFailsSynthesis proves an injected compile fault
// surfaces as a synthesis failure (and charges the breaker machinery like
// a real compiler error), while the next attempt succeeds once the fault
// schedule passes.
func TestCompileHookErrorFailsSynthesis(t *testing.T) {
	s := newSystem(t, 1)
	defer s.Close()
	inj := chaos.New(chaos.Plan{CompileErrEvery: 1}, nil, nil)
	s.CompileHook = inj.CompileHook()
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	if err := s.Synthesize("dot"); err == nil {
		t.Fatal("synthesis should fail while the compile fault is armed")
	}
	inj.Disarm()
	if err := s.Synthesize("dot"); err != nil {
		t.Fatalf("synthesis after disarm: %v", err)
	}
	if !s.Synthesized("dot") {
		t.Fatal("kernel not installed after recovery")
	}
	if inj.Injections() != 1 {
		t.Fatalf("injections = %d, want 1", inj.Injections())
	}
}

// TestCompileHookLagRespectsDeadline proves injected compile latency is
// cut short by the compile deadline instead of stalling the caller.
func TestCompileHookLagRespectsDeadline(t *testing.T) {
	s := newSystem(t, 1)
	defer s.Close()
	s.compileDeadline = 10 * time.Millisecond
	inj := chaos.New(chaos.Plan{CompileLagEvery: 1, CompileLag: 5 * time.Second}, nil, nil)
	s.CompileHook = inj.CompileHook()
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := s.Synthesize("dot")
	if err == nil {
		t.Fatal("stalled synthesis should fail at the deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("synthesis stalled %v past its 10ms deadline", d)
	}
}

// TestInvokeHostBypassesAccelerator proves the brownout path serves
// correct results without touching the accelerator or the profiler.
func TestInvokeHostBypassesAccelerator(t *testing.T) {
	s := newSystem(t, 1)
	defer s.Close()
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	res, err := s.InvokeHost(context.Background(), "dot", map[string]int32{"n": 8, "s": 0}, dotHost())
	if err != nil {
		t.Fatal(err)
	}
	var want int32 = 1*8 + 2*7 + 3*6 + 4*5 + 5*4 + 6*3 + 7*2 + 8*1
	if res.OnCGRA || res.LiveOuts["s"] != want {
		t.Fatalf("host run: onCGRA=%t s=%d, want host run with s=%d", res.OnCGRA, res.LiveOuts["s"], want)
	}
	// No profiling: repeated host-path invocations must not enqueue
	// synthesis even at threshold 1.
	for i := 0; i < 5; i++ {
		if _, err := s.InvokeHost(context.Background(), "dot", map[string]int32{"n": 8, "s": 0}, dotHost()); err != nil {
			t.Fatal(err)
		}
	}
	s.Quiesce()
	if s.Synthesized("dot") {
		t.Fatal("InvokeHost triggered background synthesis")
	}
	if _, err := s.InvokeHost(context.Background(), "nope", nil, dotHost()); err == nil {
		t.Fatal("unknown kernel must error")
	}
}

// TestOpenBreakersTripAndRecover walks a breaker through trip and
// recovery: repeated injected compile failures open it (listed by
// OpenBreakers), disarming the chaos lets a half-open probe succeed, and
// the breaker closes again.
func TestOpenBreakersTripAndRecover(t *testing.T) {
	s := newSystem(t, 1)
	defer s.Close()
	inj := chaos.New(chaos.Plan{CompileErrEvery: 1}, nil, nil)
	s.CompileHook = inj.CompileHook()
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	args := map[string]int32{"n": 8, "s": 0}
	// Profiled host runs enqueue background synthesis; each attempt fails
	// on the injected compile fault and charges the breaker.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.OpenBreakers()) == 0 && time.Now().Before(deadline) {
		if _, err := s.Invoke("dot", args, dotHost()); err != nil {
			t.Fatal(err)
		}
		s.Quiesce()
		time.Sleep(2 * time.Millisecond) // let the cool-down admit the next probe
	}
	open := s.OpenBreakers()
	if len(open) != 1 || open[0] != "dot" {
		t.Fatalf("OpenBreakers = %v, want [dot]", open)
	}
	// Recovery: stop injecting; the next admitted probe synthesis
	// succeeds and closes the breaker.
	inj.Disarm()
	deadline = time.Now().Add(5 * time.Second)
	for len(s.OpenBreakers()) > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		if _, err := s.Invoke("dot", args, dotHost()); err != nil {
			t.Fatal(err)
		}
		s.Quiesce()
	}
	if open := s.OpenBreakers(); len(open) != 0 {
		t.Fatalf("breaker did not re-close after recovery: %v", open)
	}
	if !s.Synthesized("dot") {
		t.Fatal("kernel not installed after recovery")
	}
}

// TestClearFaultsStopsCorruption proves a cleared hardware fault plan
// injects nothing: post-clear accelerated runs complete without a single
// detection.
func TestClearFaultsStopsCorruption(t *testing.T) {
	s := newSystem(t, 1)
	defer s.Close()
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	if err := s.Synthesize("dot"); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectFaults(fault.Plan{Seed: 5, Faults: []fault.Fault{{Kind: fault.TransientBit, PE: 1}}}); err != nil {
		t.Fatal(err)
	}
	s.ClearFaults()
	args := map[string]int32{"n": 8, "s": 0}
	for i := 0; i < 10; i++ {
		res, err := s.Invoke("dot", args, dotHost())
		if err != nil {
			t.Fatal(err)
		}
		if !res.OnCGRA {
			t.Fatalf("run %d fell off the accelerator", i)
		}
	}
	if st := s.Stats(); st.FaultsDetected != 0 || st.FaultsInjected != 0 {
		t.Fatalf("cleared plan still fired: detected=%d injected=%d", st.FaultsDetected, st.FaultsInjected)
	}
}

// TestFaultsInjectedSurvivesClear proves cgra_system_faults_injected counts
// every injection of every plan: clearing a plan keeps its count, and a
// second plan adds to it instead of starting from zero.
func TestFaultsInjectedSurvivesClear(t *testing.T) {
	s := newSystem(t, 1)
	defer s.Close()
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	if err := s.Synthesize("dot"); err != nil {
		t.Fatal(err)
	}
	args := map[string]int32{"n": 8, "s": 0}
	gauge := s.Metrics().Gauge("cgra_system_faults_injected")
	armAndRun := func() int64 {
		t.Helper()
		if err := s.InjectFaults(fault.Plan{Seed: 5, Faults: []fault.Fault{{Kind: fault.TransientBit, PE: 1}}}); err != nil {
			t.Fatal(err)
		}
		// A transient fires once, at its activation cycle or in the next run.
		for i := 0; i < 2; i++ {
			if _, err := s.Invoke("dot", args, dotHost()); err != nil {
				t.Fatal(err)
			}
		}
		return s.Stats().FaultsInjected
	}
	first := armAndRun()
	if first < 1 {
		t.Fatalf("armed plan on a busy PE injected %d faults, want >= 1", first)
	}
	s.ClearFaults()
	for i := 0; i < 3; i++ {
		if _, err := s.Invoke("dot", args, dotHost()); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().FaultsInjected; got != first {
		t.Fatalf("after ClearFaults: injected = %d, want the cleared plan's %d", got, first)
	}
	if second := armAndRun(); second <= first {
		t.Fatalf("second plan: injected = %d, want more than the first plan's %d", second, first)
	}
	if g := int64(gauge.Value()); g != s.Stats().FaultsInjected {
		t.Fatalf("cgra_system_faults_injected = %d, Stats().FaultsInjected = %d", g, s.Stats().FaultsInjected)
	}
}
