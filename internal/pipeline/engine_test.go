package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/arch"
	"cgra/internal/ir"
	"cgra/internal/sched"
	"cgra/internal/sim"
	"cgra/internal/workload"
)

// engineCase is one kernel with concrete inputs for differential runs.
type engineCase struct {
	name string
	c    *Compiled
	args map[string]int32
	host *ir.Host
}

func engineCases(t testing.TB) []engineCase {
	t.Helper()
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	var cases []engineCase
	for _, w := range workload.All() {
		c, err := Compile(w.Kernel, comp, Defaults())
		if err != nil {
			t.Fatalf("compile %s: %v", w.Name, err)
		}
		cases = append(cases, engineCase{
			name: w.Name,
			c:    c,
			args: w.Args(w.DefaultSize),
			host: w.Host(w.DefaultSize),
		})
		// Modulo-backend variants: software-pipelined context layouts
		// (prologue/kernel/epilogue with a conditional back-jump).
		mo := Defaults()
		mo.Backend = sched.BackendModulo
		cm, err := Compile(w.Kernel, comp, mo)
		if err != nil {
			t.Fatalf("compile %s (modulo): %v", w.Name, err)
		}
		if cm.Schedule.Stats.PipelinedLoops > 0 {
			cases = append(cases, engineCase{
				name: w.Name + "-modulo",
				c:    cm,
				args: w.Args(w.DefaultSize),
				host: w.Host(w.DefaultSize),
			})
		}
	}
	const n = 24
	samples := adpcm.GenerateSamples(n)
	var encSt adpcm.State
	codes, err := adpcm.Encode(samples, &encSt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(adpcm.Kernel(), comp, Defaults())
	if err != nil {
		t.Fatalf("compile adpcm: %v", err)
	}
	cases = append(cases, engineCase{
		name: "adpcm",
		c:    c,
		args: adpcm.Args(n, adpcm.State{}),
		host: adpcm.NewHost(codes, n),
	})
	return cases
}

// runHooked runs the compiled kernel with a no-op probe attached, so the
// walk takes every hook branch.
func runHooked(c *Compiled, args map[string]int32, host *ir.Host) (*sim.Result, error) {
	m := c.Machine()
	m.Probe = func(sim.Event) {}
	return m.Run(args, host)
}

// TestEngineDifferential asserts that attaching instrumentation leaves a
// run result-identical on every workload kernel: live-outs, run/transfer
// cycles, accumulated energy and heap effects of the hooked walk equal the
// plain one. Identity with the old interpreter, events and faults included,
// is sim's TestEngineMatchesReference.
func TestEngineDifferential(t *testing.T) {
	for _, tc := range engineCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.c.Engine(); err != nil {
				t.Fatalf("program does not predecode: %v", err)
			}
			hostHooked := tc.host.Clone()
			hostPlain := tc.host.Clone()
			hooked, err := runHooked(tc.c, tc.args, hostHooked)
			if err != nil {
				t.Fatalf("hooked: %v", err)
			}
			plain, err := tc.c.Run(tc.args, hostPlain)
			if err != nil {
				t.Fatalf("plain: %v", err)
			}
			if hooked.RunCycles != plain.RunCycles {
				t.Errorf("run cycles: hooked %d, plain %d", hooked.RunCycles, plain.RunCycles)
			}
			if hooked.TransferCycles != plain.TransferCycles {
				t.Errorf("transfer cycles: hooked %d, plain %d", hooked.TransferCycles, plain.TransferCycles)
			}
			if hooked.Energy != plain.Energy {
				t.Errorf("energy: hooked %v, plain %v", hooked.Energy, plain.Energy)
			}
			if len(hooked.LiveOuts) != len(plain.LiveOuts) {
				t.Errorf("live-out count: hooked %d, plain %d", len(hooked.LiveOuts), len(plain.LiveOuts))
			}
			for name, want := range hooked.LiveOuts {
				if got, ok := plain.LiveOuts[name]; !ok || got != want {
					t.Errorf("live-out %q: hooked %d, plain %d (present %v)", name, want, got, ok)
				}
			}
			if !hostHooked.Equal(hostPlain) {
				t.Errorf("heap contents diverge between hooked and plain run")
			}
		})
	}
}

// laneInput is one lane of a batched differential run.
type laneInput struct {
	args map[string]int32
	host *ir.Host
}

// runLaneDifferential executes lanes once each through the scalar fast
// path and once as a single RunBatch, and requires byte-identical results
// per lane: cycles, energy, live-outs and heap effects.
func runLaneDifferential(t *testing.T, c *Compiled, lanes []laneInput) {
	t.Helper()
	eng, err := c.Engine()
	if err != nil {
		t.Fatalf("program does not predecode: %v", err)
	}
	type scalarRef struct {
		res  *sim.Result
		host *ir.Host
	}
	refs := make([]scalarRef, len(lanes))
	for i, ln := range lanes {
		h := ln.host.Clone()
		res, err := c.Run(ln.args, h)
		if err != nil {
			t.Fatalf("scalar lane %d: %v", i, err)
		}
		refs[i] = scalarRef{res: res, host: h}
	}
	reqs := make([]sim.BatchRequest, len(lanes))
	hosts := make([]*ir.Host, len(lanes))
	for i, ln := range lanes {
		hosts[i] = ln.host.Clone()
		reqs[i] = sim.BatchRequest{Args: ln.args, Host: hosts[i]}
	}
	outs := eng.RunBatch(context.Background(), 0, reqs)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("batched lane %d: %v", i, o.Err)
		}
		ref := refs[i].res
		if o.Res.RunCycles != ref.RunCycles {
			t.Errorf("lane %d run cycles: scalar %d, batched %d", i, ref.RunCycles, o.Res.RunCycles)
		}
		if o.Res.TransferCycles != ref.TransferCycles {
			t.Errorf("lane %d transfer cycles: scalar %d, batched %d", i, ref.TransferCycles, o.Res.TransferCycles)
		}
		if o.Res.Energy != ref.Energy {
			t.Errorf("lane %d energy: scalar %v, batched %v", i, ref.Energy, o.Res.Energy)
		}
		if len(o.Res.LiveOuts) != len(ref.LiveOuts) {
			t.Errorf("lane %d live-out count: scalar %d, batched %d", i, len(ref.LiveOuts), len(o.Res.LiveOuts))
		}
		for name, want := range ref.LiveOuts {
			if got, ok := o.Res.LiveOuts[name]; !ok || got != want {
				t.Errorf("lane %d live-out %q: scalar %d, batched %d (present %v)", i, name, want, got, ok)
			}
		}
		if !hosts[i].Equal(refs[i].host) {
			t.Errorf("lane %d heap contents diverge between scalar and batched run", i)
		}
	}
}

// laneMix builds a shuffled mixed-size batch for one workload, so lanes
// halt at different cycles and exercise early-exit compaction.
func laneMix(w *workload.Workload) []laneInput {
	base := w.DefaultSize
	if base < 4 {
		base = 4
	}
	sizes := []int{base, base + 3, base - 1, base, base + 1, base - 2, base + 5}
	r := rand.New(rand.NewSource(int64(len(w.Name)) + 42))
	r.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	var lanes []laneInput
	for i, sz := range sizes {
		if sz < 3 {
			sz = 3
		}
		args := w.Args(sz)
		if w.Name == "gcd" {
			// gcd ignores size: vary the operands instead so every lane
			// runs a different iteration count.
			args = map[string]int32{"a": int32(1071 + 13*i), "b": int32(462 + 7*i)}
		}
		lanes = append(lanes, laneInput{args: args, host: w.Host(sz)})
	}
	return lanes
}

// TestEngineDifferentialLanes is the lane differential: RunBatch over a
// shuffled mixed-input batch must be byte-identical to N scalar runs for
// every workload kernel, including the modulo-pipelined variants, with
// per-lane early exit in play.
func TestEngineDifferentialLanes(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workload.All() {
		c, err := Compile(w.Kernel, comp, Defaults())
		if err != nil {
			t.Fatalf("compile %s: %v", w.Name, err)
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			runLaneDifferential(t, c, laneMix(w))
		})
		mo := Defaults()
		mo.Backend = sched.BackendModulo
		cm, err := Compile(w.Kernel, comp, mo)
		if err != nil {
			t.Fatalf("compile %s (modulo): %v", w.Name, err)
		}
		if cm.Schedule.Stats.PipelinedLoops > 0 {
			t.Run(w.Name+"-modulo", func(t *testing.T) {
				runLaneDifferential(t, cm, laneMix(w))
			})
		}
	}
	t.Run("adpcm", func(t *testing.T) {
		c, err := Compile(adpcm.Kernel(), comp, Defaults())
		if err != nil {
			t.Fatalf("compile adpcm: %v", err)
		}
		var lanes []laneInput
		for _, n := range []int{8, 24, 16, 24, 12} {
			samples := adpcm.GenerateSamples(n)
			var encSt adpcm.State
			codes, err := adpcm.Encode(samples, &encSt)
			if err != nil {
				t.Fatal(err)
			}
			lanes = append(lanes, laneInput{args: adpcm.Args(n, adpcm.State{}), host: adpcm.NewHost(codes, n)})
		}
		runLaneDifferential(t, c, lanes)
	})
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
	good := laneInput{args: w.Args(w.DefaultSize), host: w.Host(w.DefaultSize)}
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
	tc := engineCases(t)[0]
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
	tc := engineCases(t)[0]
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

// checkedOnce is a context that turns Canceled once it has been checked:
// its first Err reports nil, every later one context.Canceled.
type checkedOnce struct {
	context.Context
	checks int
}

func (c *checkedOnce) Err() error {
	if c.checks++; c.checks > 1 {
		return context.Canceled
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
	tc := engineCases(t)[0]
	if _, err := tc.c.Machine().RunCtx(ctx, tc.args, tc.host.Clone()); !errors.Is(err, context.Canceled) {
		t.Fatalf("run under a cancelled context: %v, want context.Canceled", err)
	}

	c, args, host := longAdpcm(t)
	_, err := c.Machine().RunCtx(&checkedOnce{Context: context.Background()}, args, host.Clone())
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
	_, want := c.Machine().RunCtx(&checkedOnce{Context: context.Background()}, args, host.Clone())
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
	for l, o := range eng.RunBatch(&checkedOnce{Context: context.Background()}, 0, reqs) {
		if !errors.Is(o.Err, context.Canceled) || o.Err.Error() != want.Error() {
			t.Errorf("lane %d: %v, want %v", l, o.Err, want)
		}
	}
}

// TestEnginePoolReuse runs the scalar walk repeatedly and concurrently over
// one shared Decoded: pooled run state must be fully reset between runs,
// and concurrent requests must not interfere (the cgrad serving pattern).
func TestEnginePoolReuse(t *testing.T) {
	tc := engineCases(t)[0]
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
	tc := engineCases(t)[0]
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
