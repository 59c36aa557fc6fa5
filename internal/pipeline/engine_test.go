package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/arch"
	"cgra/internal/ir"
	"cgra/internal/sim"
	"cgra/internal/workload"
)

// engineCase is a compiled kernel with concrete inputs.
type engineCase struct {
	c    *Compiled
	args map[string]int32
	host *ir.Host
}

// firCase compiles fir on "9 PEs" with Defaults(), for the tests of one
// walk's limits.
func firCase(t testing.TB) engineCase {
	t.Helper()
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	w := workload.FIR()
	c, err := Compile(w.Kernel, comp, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	return engineCase{c: c, args: w.Args(w.DefaultSize), host: w.Host(w.DefaultSize)}
}

// TestEngineLanesErrorIsolation puts a poisoned lane (missing live-in) and
// a DMA-faulting lane (truncated host array) in the middle of a batch of
// good lanes: each bad lane gets its own error and every good lane's
// result stays byte-identical to its scalar run.
func TestEngineLanesErrorIsolation(t *testing.T) {
	w, err := workload.ByName("fir")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(w.Kernel, comp, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := c.Engine()
	if err != nil {
		t.Fatal(err)
	}
	good := engineCase{args: w.Args(w.DefaultSize), host: w.Host(w.DefaultSize)}
	ref, err := c.Run(good.args, good.host.Clone())
	if err != nil {
		t.Fatal(err)
	}
	truncated := good.host.Clone()
	for name := range truncated.Arrays {
		truncated.Arrays[name] = truncated.Arrays[name][:0]
	}
	reqs := []sim.BatchRequest{
		{Args: good.args, Host: good.host.Clone()},
		{Args: map[string]int32{}, Host: good.host.Clone()}, // missing live-ins
		{Args: good.args, Host: good.host.Clone()},
		{Args: good.args, Host: truncated}, // DMA out of range mid-run
		{Args: good.args, Host: good.host.Clone()},
	}
	outs := eng.RunBatch(context.Background(), 0, reqs)
	if outs[1].Err == nil {
		t.Error("missing live-in lane did not fail")
	}
	if outs[3].Err == nil {
		t.Error("truncated-heap lane did not fail")
	}
	for _, i := range []int{0, 2, 4} {
		if outs[i].Err != nil {
			t.Fatalf("good lane %d poisoned: %v", i, outs[i].Err)
		}
		if outs[i].Res.RunCycles != ref.RunCycles || outs[i].Res.Energy != ref.Energy {
			t.Errorf("good lane %d diverged from scalar run", i)
		}
		for name, want := range ref.LiveOuts {
			if outs[i].Res.LiveOuts[name] != want {
				t.Errorf("good lane %d live-out %q: %d, want %d", i, name, outs[i].Res.LiveOuts[name], want)
			}
		}
	}
}

// TestEngineLanesWatchdog asserts RunBatch honors the cycle budget with
// the scalar path's typed error on every unfinished lane.
func TestEngineLanesWatchdog(t *testing.T) {
	tc := firCase(t)
	eng, err := tc.c.Engine()
	if err != nil {
		t.Fatal(err)
	}
	reqs := []sim.BatchRequest{
		{Args: tc.args, Host: tc.host.Clone()},
		{Args: tc.args, Host: tc.host.Clone()},
	}
	outs := eng.RunBatch(context.Background(), 3, reqs)
	for i, o := range outs {
		var we *sim.WatchdogError
		if !errors.As(o.Err, &we) {
			t.Fatalf("lane %d: want WatchdogError, got %v", i, o.Err)
		}
		if we.Limit != 3 {
			t.Fatalf("lane %d watchdog limit %d, want 3", i, we.Limit)
		}
	}
}

// TestEngineLanesCancellation asserts a cancelled context fails every lane
// with a wrapped cancellation error, like the scalar path.
func TestEngineLanesCancellation(t *testing.T) {
	tc := firCase(t)
	eng, err := tc.c.Engine()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs := eng.RunBatch(ctx, 0, []sim.BatchRequest{{Args: tc.args, Host: tc.host.Clone()}})
	if outs[0].Err == nil {
		t.Fatal("cancelled batch returned a result")
	}
}

// expiresAfter returns a context whose Err reports nil for its first
// checks calls and err from then on.
func expiresAfter(checks int, err error) context.Context {
	return &expiring{Context: context.Background(), checks: checks, err: err}
}

type expiring struct {
	context.Context
	checks int
	err    error
}

func (c *expiring) Err() error {
	if c.checks--; c.checks < 0 {
		return c.err
	}
	return nil
}

// longAdpcm compiles adpcm on "9 PEs" with inputs that run past the
// second cancellation check at cycle 8192.
func longAdpcm(t *testing.T) (*Compiled, map[string]int32, *ir.Host) {
	t.Helper()
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(adpcm.Kernel(), comp, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var enc adpcm.State
	codes, err := adpcm.Encode(adpcm.GenerateSamples(adpcm.NumSamples), &enc)
	if err != nil {
		t.Fatal(err)
	}
	args, host := adpcm.Args(adpcm.NumSamples, adpcm.State{}), adpcm.NewHost(codes, adpcm.NumSamples)
	full, err := c.Run(args, host.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if full.RunCycles <= 8192 {
		t.Fatalf("adpcm runs %d cycles, too few to reach a second check", full.RunCycles)
	}
	return c, args, host
}

// TestEngineCancellation asserts the scalar walk checks its context at
// cycle 0 and at every multiple of 8192 cycles: a context cancelled before
// the run fails it with a wrapped context.Canceled, and one that turns
// Canceled after the first check stops an adpcm run at cycle 8192 exactly,
// although the block-stepped walk checks only between blocks.
func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tc := firCase(t)
	if _, err := tc.c.Machine().RunCtx(ctx, tc.args, tc.host.Clone()); !errors.Is(err, context.Canceled) {
		t.Fatalf("run under a cancelled context: %v, want context.Canceled", err)
	}

	c, args, host := longAdpcm(t)
	_, err := c.Machine().RunCtx(expiresAfter(1, context.Canceled), args, host.Clone())
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "run cancelled at cycle 8192") {
		t.Fatalf("run cancelled after its first check: %v, want cancellation at cycle 8192", err)
	}
}

// TestEngineLanesCancellationCadence is TestEngineCancellation for
// RunBatch: a context that turns Canceled after its first check stops a
// batch of identical adpcm lanes at cycle 8192, every lane with the scalar
// walk's error text, although the lane walk too checks only between
// blocks.
func TestEngineLanesCancellationCadence(t *testing.T) {
	c, args, host := longAdpcm(t)
	_, want := c.Machine().RunCtx(expiresAfter(1, context.Canceled), args, host.Clone())
	if want == nil || !strings.Contains(want.Error(), "run cancelled at cycle 8192") {
		t.Fatalf("scalar run cancelled after its first check: %v, want cancellation at cycle 8192", want)
	}
	eng, err := c.Engine()
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]sim.BatchRequest, 3)
	for l := range reqs {
		reqs[l] = sim.BatchRequest{Args: args, Host: host.Clone()}
	}
	for l, o := range eng.RunBatch(expiresAfter(1, context.Canceled), 0, reqs) {
		if !errors.Is(o.Err, context.Canceled) || o.Err.Error() != want.Error() {
			t.Errorf("lane %d: %v, want %v", l, o.Err, want)
		}
	}
}

// TestEnginePoolReuse runs the scalar walk repeatedly and concurrently over
// one shared Decoded: pooled run state must be fully reset between runs,
// and concurrent requests must not interfere (the cgrad serving pattern).
func TestEnginePoolReuse(t *testing.T) {
	tc := firCase(t)
	ref, err := tc.c.Run(tc.args, tc.host.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, err := tc.c.Run(tc.args, tc.host.Clone())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.RunCycles != ref.RunCycles || res.Energy != ref.Energy {
			t.Fatalf("run %d diverged: cycles %d vs %d", i, res.RunCycles, ref.RunCycles)
		}
		for name, want := range ref.LiveOuts {
			if res.LiveOuts[name] != want {
				t.Fatalf("run %d live-out %q: %d, want %d", i, name, res.LiveOuts[name], want)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := tc.c.Run(tc.args, tc.host.Clone())
			if err != nil {
				errs <- err
				return
			}
			for name, want := range ref.LiveOuts {
				if res.LiveOuts[name] != want {
					errs <- fmt.Errorf("concurrent live-out %q: %d, want %d", name, res.LiveOuts[name], want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEngineWatchdog asserts the scalar walk honors MaxCycles with the
// typed WatchdogError.
func TestEngineWatchdog(t *testing.T) {
	tc := firCase(t)
	m := tc.c.Machine()
	if m.Engine == nil {
		t.Fatal("no engine attached")
	}
	m.MaxCycles = 3
	_, err := m.Run(tc.args, tc.host.Clone())
	var we *sim.WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("want WatchdogError, got %v", err)
	}
	if we.Limit != 3 {
		t.Fatalf("watchdog limit %d, want 3", we.Limit)
	}
}
