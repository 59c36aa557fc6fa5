package system

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cgra/internal/ir"
	"cgra/internal/obs"
)

// synthesizeDot registers dot and drives it through synthesis so the
// compiled entry is installed.
func synthesizeDot(t *testing.T) *System {
	t.Helper()
	s := newSystem(t, 1)
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	args := map[string]int32{"n": 8, "s": 0}
	if _, err := s.Invoke("dot", args, dotHost()); err != nil {
		t.Fatal(err)
	}
	s.Quiesce()
	if !s.Synthesized("dot") {
		t.Fatal("dot not synthesized")
	}
	return s
}

// TestInvokeBatch runs a mixed-argument batch through the engine and
// checks every lane against its scalar invocation.
func TestInvokeBatch(t *testing.T) {
	s := synthesizeDot(t)
	defer s.Close()

	reqs := make([]BatchRequest, 5)
	wants := make([]int32, 5)
	for i := range reqs {
		n := int32(3 + i)
		args := map[string]int32{"n": n, "s": 0}
		host := dotHost()
		reqs[i] = BatchRequest{Args: args, Host: host}
		ref, err := s.InvokeCtx(context.Background(), "dot", map[string]int32{"n": n, "s": 0}, dotHost())
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = ref.LiveOuts["s"]
	}
	outs := s.InvokeBatch(context.Background(), "dot", reqs)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("lane %d: %v", i, o.Err)
		}
		if !o.Res.OnCGRA {
			t.Errorf("lane %d did not run on the CGRA", i)
		}
		if got := o.Res.LiveOuts["s"]; got != wants[i] {
			t.Errorf("lane %d: s = %d, want %d", i, got, wants[i])
		}
	}
}

// TestInvokeBatchUncompiled falls back to scalar host invocations when no
// compiled entry is installed, with correct per-lane results.
func TestInvokeBatchUncompiled(t *testing.T) {
	s := newSystem(t, 1<<40) // threshold never reached
	defer s.Close()
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	reqs := []BatchRequest{
		{Args: map[string]int32{"n": 8, "s": 0}, Host: dotHost()},
		{Args: map[string]int32{"n": 4, "s": 0}, Host: dotHost()},
	}
	outs := s.InvokeBatch(context.Background(), "dot", reqs)
	var want0 int32 = 1*8 + 2*7 + 3*6 + 4*5 + 5*4 + 6*3 + 7*2 + 8*1
	var want1 int32 = 1*8 + 2*7 + 3*6 + 4*5
	for i, want := range []int32{want0, want1} {
		if outs[i].Err != nil {
			t.Fatalf("lane %d: %v", i, outs[i].Err)
		}
		if outs[i].Res.OnCGRA {
			t.Errorf("lane %d claims CGRA without a compiled entry", i)
		}
		if got := outs[i].Res.LiveOuts["s"]; got != want {
			t.Errorf("lane %d: s = %d, want %d", i, got, want)
		}
	}
}

// TestInvokeBatchLaneIsolation puts a lane with a broken heap in the
// middle of good lanes: the bad lane reports its own error (after the
// recovery ladder also fails on the host) and the good lanes' results and
// heap commits are untouched.
func TestInvokeBatchLaneIsolation(t *testing.T) {
	s := synthesizeDot(t)
	defer s.Close()

	broken := ir.NewHost()
	broken.Arrays["a"] = []int32{}
	broken.Arrays["b"] = []int32{}
	reqs := []BatchRequest{
		{Args: map[string]int32{"n": 8, "s": 0}, Host: dotHost()},
		{Args: map[string]int32{"n": 8, "s": 0}, Host: broken},
		{Args: map[string]int32{"n": 8, "s": 0}, Host: dotHost()},
	}
	outs := s.InvokeBatch(context.Background(), "dot", reqs)
	if outs[1].Err == nil {
		t.Error("broken lane succeeded")
	}
	var want int32 = 1*8 + 2*7 + 3*6 + 4*5 + 5*4 + 6*3 + 7*2 + 8*1
	for _, i := range []int{0, 2} {
		if outs[i].Err != nil {
			t.Fatalf("good lane %d poisoned: %v", i, outs[i].Err)
		}
		if got := outs[i].Res.LiveOuts["s"]; got != want {
			t.Errorf("good lane %d: s = %d, want %d", i, got, want)
		}
	}
}

// coalescingDot builds a system that coalesces runs inside window, with
// dot synthesized so every invocation is batch-eligible at once.
func coalescingDot(t *testing.T, window time.Duration) *System {
	t.Helper()
	s := newSystem(t, 1)
	s.CoalesceRuns(window)
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	if err := s.Synthesize("dot"); err != nil {
		t.Fatal(err)
	}
	return s
}

// waitLingering blocks until dot's open batch holds n lanes.
func waitLingering(t *testing.T, s *System, n int) {
	t.Helper()
	ent := s.state.Load().compiled["dot"]
	for give := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		ent.batchMu.Lock()
		got := 0
		if ent.open != nil {
			got = len(ent.open.lanes)
		}
		ent.batchMu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(give) {
			t.Fatalf("%d lanes lingering, want %d", got, n)
		}
	}
}

// TestInvokeCtxCoalesces drives the coalescer through InvokeCtx alone, one
// case per flush rule: every surviving lane gets its own correct result
// and the flush-reason and solo counters say which rule fired.
func TestInvokeCtxCoalesces(t *testing.T) {
	type count struct {
		metric, reason string
		min, max       int64
	}
	const anyLanes = -1
	cases := []struct {
		name    string
		window  time.Duration
		n       int           // concurrent invocations
		timeout time.Duration // each invocation's deadline (0 = none)
		broken  int           // lane whose heap cannot sustain the run (-1 = none)
		cancel  int           // lane cancelled once all n linger (-1 = none)
		lanes   int           // Result.Lanes of every surviving lane
		within  time.Duration // bound on the whole case (0 = unchecked)
		counts  []count
	}{
		// Arrivals inside the window share a pass the linger timer flushes.
		{name: "linger", window: 60 * time.Millisecond, n: 4, broken: -1, cancel: -1, lanes: anyLanes,
			counts: []count{{"cgra_run_batched_total", "", 4, 4}, {"cgra_run_batch_flush_total", flushLinger, 1, 4}}},
		// A long window must not delay a batch that fills: 32 arrivals are
		// two full flushes of 16, long before the window (no deadline, so no
		// rush either).
		{name: "full", window: time.Second, n: 32, broken: -1, cancel: -1, lanes: maxBatchLanes, within: time.Second,
			counts: []count{{"cgra_run_batched_total", "", 32, 32}, {"cgra_run_batch_flush_total", flushFull, 2, 2}}},
		// Under 2 x window left: too tight to linger at all, runs alone.
		{name: "deadline-solo", window: 200 * time.Millisecond, n: 1, timeout: 100 * time.Millisecond, broken: -1, cancel: -1, lanes: 0,
			counts: []count{{"cgra_run_batch_solo_total", "deadline", 1, 1}, {"cgra_run_batched_total", "", 0, 0}}},
		// In [2, 8) x window: joins, then flushes at once instead of waiting.
		{name: "deadline-rush", window: 200 * time.Millisecond, n: 1, timeout: 900 * time.Millisecond, broken: -1, cancel: -1, lanes: 1,
			within: 150 * time.Millisecond,
			counts: []count{{"cgra_run_batch_flush_total", flushDeadline, 1, 1}}},
		// A lane that faults on the engine and again on the host recovery
		// ladder fails alone.
		{name: "lane-error", window: 60 * time.Millisecond, n: 3, broken: 1, cancel: -1, lanes: anyLanes},
		// A lane cancelled while lingering returns before the flush and is
		// not run; its siblings flush on time without it.
		{name: "cancel-while-lingering", window: 400 * time.Millisecond, n: 3, broken: -1, cancel: 1, lanes: 2,
			counts: []count{{"cgra_run_batched_total", "", 2, 2}, {"cgra_run_batch_flush_total", flushLinger, 1, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := coalescingDot(t, tc.window)
			defer s.Close()

			res := make([]*Result, tc.n)
			errs := make([]error, tc.n)
			doneAt := make([]time.Time, tc.n)
			cancels := make([]context.CancelFunc, tc.n)
			start := time.Now()
			var wg sync.WaitGroup
			for i := 0; i < tc.n; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if tc.timeout > 0 {
					ctx, cancel = context.WithTimeout(context.Background(), tc.timeout)
				}
				cancels[i] = cancel
				defer cancel()
				host := dotHost()
				if i == tc.broken {
					host.Arrays = map[string][]int32{"a": {}, "b": {}}
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					args := map[string]int32{"n": int32(1 + i%8), "s": 0}
					res[i], errs[i] = s.InvokeCtx(ctx, "dot", args, host)
					doneAt[i] = time.Now()
				}(i)
			}
			if tc.cancel >= 0 {
				waitLingering(t, s, tc.n)
				cancels[tc.cancel]()
			}
			wg.Wait()
			if elapsed := time.Since(start); tc.within > 0 && elapsed > tc.within {
				t.Errorf("took %v, want under %v", elapsed, tc.within)
			}

			a, b := dotHost().Arrays["a"], dotHost().Arrays["b"]
			for i := 0; i < tc.n; i++ {
				switch i {
				case tc.broken:
					if errs[i] == nil {
						t.Errorf("broken lane %d succeeded", i)
					}
					continue
				case tc.cancel:
					if !errors.Is(errs[i], context.Canceled) {
						t.Errorf("cancelled lane %d: err = %v, want context.Canceled", i, errs[i])
					}
					for j := range doneAt {
						if j != i && !doneAt[i].Before(doneAt[j]) {
							t.Errorf("cancelled lane %d returned after sibling %d's flush", i, j)
						}
					}
					continue
				}
				if errs[i] != nil {
					t.Fatalf("lane %d: %v", i, errs[i])
				}
				var want int32
				for j := 0; j < 1+i%8; j++ {
					want += a[j] * b[j]
				}
				if got := res[i].LiveOuts["s"]; got != want {
					t.Errorf("lane %d: s = %d, want %d", i, got, want)
				}
				if !res[i].OnCGRA {
					t.Errorf("lane %d did not run on the CGRA", i)
				}
				if got := res[i].Lanes; got != tc.lanes && !(tc.lanes == anyLanes && got > 0) {
					t.Errorf("lane %d: Lanes = %d, want %d", i, got, tc.lanes)
				}
			}
			for _, c := range tc.counts {
				var labels []obs.Label
				if c.reason != "" {
					labels = append(labels, obs.L("reason", c.reason))
				}
				if got := s.Metrics().Counter(c.metric, labels...).Value(); got < c.min || got > c.max {
					t.Errorf("%s{%s} = %d, want in [%d, %d]", c.metric, c.reason, got, c.min, c.max)
				}
			}
		})
	}
}
