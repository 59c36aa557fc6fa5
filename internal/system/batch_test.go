package system

import (
	"context"
	"errors"
	"runtime"
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

// coalescingDot builds a system that coalesces runs with the given window
// (0 = coalescing off), with dot synthesized so every invocation is
// batch-eligible at once.
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

// holdLimit puts dot's entry at its run limit, as if that many runs were in
// flight, and returns it; s.release(ent) ends one of them.
func holdLimit(s *System) *entry {
	ent := s.state.Load().compiled["dot"]
	ent.batchMu.Lock()
	ent.running = s.co.limit
	ent.batchMu.Unlock()
	return ent
}

// waitLingering blocks until n invocations sit behind dot's held runs:
// n/16 of them flushed full, the rest in the open batch.
func waitLingering(t *testing.T, s *System, n int) {
	t.Helper()
	ent := s.state.Load().compiled["dot"]
	full := s.Metrics().Counter("cgra_run_batch_flush_total", obs.L("reason", flushFull))
	for give := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		ent.batchMu.Lock()
		got := 0
		if ent.open != nil {
			got = len(ent.open.lanes)
		}
		ent.batchMu.Unlock()
		if got == n%maxBatchLanes && full.Value() == int64(n/maxBatchLanes) {
			return
		}
		if time.Now().After(give) {
			t.Fatalf("%d lanes queued and %d full flushes, want %d queued in all", got, full.Value(), n)
		}
	}
}

// TestInvokeCtxCoalesces drives the coalescer through InvokeCtx alone, one
// case per admission and flush rule. Queueing needs the entry at its run
// limit, which the cases hold by hand rather than by timing, then end one
// held run through the production release step. Every surviving lane gets
// its own correct result, and the flush-reason and solo counters say which
// rule fired.
func TestInvokeCtxCoalesces(t *testing.T) {
	type count struct {
		metric, reason string
		min, max       int64
	}
	const anyLanes = -1
	limit := runtime.GOMAXPROCS(0)
	flushes := func(full, released, linger int64) []count {
		return []count{
			{"cgra_run_batch_flush_total", flushFull, full, full},
			{"cgra_run_batch_flush_total", flushReleased, released, released},
			{"cgra_run_batch_flush_total", flushLinger, linger, linger},
		}
	}
	cases := []struct {
		name    string
		window  time.Duration
		n       int           // concurrent invocations
		hold    bool          // hold the entry at its run limit first
		release bool          // end one held run once all n are queued
		timeout time.Duration // each invocation's deadline (0 = none)
		broken  int           // lane whose heap cannot sustain the run (-1 = none)
		cancel  int           // lane cancelled once all n are queued (-1 = none)
		lanes   int           // Result.Lanes of every surviving lane
		within  time.Duration // bound on the whole case (0 = unchecked)
		counts  []count
	}{
		// Up to the limit, every invocation runs at once as a batch of one:
		// nothing queues, no batch (and so no timer) is ever opened.
		{name: "idle", window: time.Second, n: limit, broken: -1, cancel: -1, lanes: 1, within: time.Second,
			counts: append(flushes(0, 0, 0), count{"cgra_run_batch_solo_total", "idle", int64(limit), int64(limit)},
				count{"cgra_run_batched_total", "", 0, 0})},
		// At the limit, K queued lanes run as one pass when a held run ends,
		// long before the window.
		{name: "released", window: time.Second, n: 5, hold: true, release: true, broken: -1, cancel: -1, lanes: 5, within: time.Second,
			counts: append(flushes(0, 1, 0), count{"cgra_run_batched_total", "", 5, 5},
				count{"cgra_run_batch_solo_total", "idle", 0, 0})},
		// K = 20 queued lanes are ceil(20/16) = 2 passes: the first 16 flush
		// full, the other 4 on the release.
		{name: "released-over-cap", window: time.Second, n: 20, hold: true, release: true, broken: -1, cancel: -1, lanes: anyLanes, within: time.Second,
			counts: append(flushes(1, 1, 0), count{"cgra_run_batched_total", "", 20, 20})},
		// With no run ending, 32 queued lanes are two full flushes of 16,
		// long before the window.
		{name: "full", window: time.Second, n: 32, hold: true, broken: -1, cancel: -1, lanes: maxBatchLanes, within: time.Second,
			counts: append(flushes(2, 0, 0), count{"cgra_run_batched_total", "", 32, 32})},
		// Under 2 x window left never queues: it runs at once at the limit.
		{name: "deadline-solo", window: 200 * time.Millisecond, n: 1, hold: true, timeout: 100 * time.Millisecond, broken: -1, cancel: -1, lanes: 0,
			counts: []count{{"cgra_run_batch_solo_total", "deadline", 1, 1}, {"cgra_run_batched_total", "", 0, 0}}},
		// A held run that outlives the window: the window caps the queue.
		{name: "linger", window: 60 * time.Millisecond, n: 1, hold: true, broken: -1, cancel: -1, lanes: 1,
			counts: append(flushes(0, 0, 1), count{"cgra_run_batched_total", "", 1, 1})},
		// A lane cancelled while queued returns before the flush and is not
		// run; its siblings flush without it on the release.
		{name: "cancel-while-queued", window: time.Second, n: 3, hold: true, release: true, broken: -1, cancel: 1, lanes: 2,
			counts: append(flushes(0, 1, 0), count{"cgra_run_batched_total", "", 2, 2})},
		// A lane that faults on the engine and again on the host recovery
		// ladder fails alone.
		{name: "lane-error", window: time.Second, n: 3, hold: true, release: true, broken: 1, cancel: -1, lanes: 3,
			counts: flushes(0, 1, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := coalescingDot(t, tc.window)
			defer s.Close()
			var ent *entry
			if tc.hold {
				ent = holdLimit(s)
			}

			res := make([]*Result, tc.n)
			errs := make([]error, tc.n)
			done := make([]chan struct{}, tc.n)
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
				done[i] = make(chan struct{})
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					defer close(done[i])
					args := map[string]int32{"n": int32(1 + i%8), "s": 0}
					res[i], errs[i] = s.InvokeCtx(ctx, "dot", args, host)
				}(i)
			}
			if tc.release {
				queued := tc.n
				if tc.cancel >= 0 {
					waitLingering(t, s, queued)
					cancels[tc.cancel]()
					<-done[tc.cancel]
					for j := range done {
						select {
						case <-done[j]:
							if j != tc.cancel {
								t.Errorf("sibling %d finished before the release", j)
							}
						default:
						}
					}
					queued--
				}
				waitLingering(t, s, queued)
				s.release(ent)
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
			ent = s.state.Load().compiled["dot"]
			ent.batchMu.Lock()
			if ent.open != nil {
				t.Errorf("a batch of %d lanes is still queued", len(ent.open.lanes))
			}
			ent.batchMu.Unlock()
		})
	}
}

// TestCoalescerBurst: 64 goroutines x 50 back-to-back invocations of dot
// with coalescing on. Every answer is right and every invocation is counted
// exactly once, as an idle solo or as a batched lane. Throughput against
// coalescing off is logged, not asserted.
func TestCoalescerBurst(t *testing.T) {
	const goroutines, iters = 64, 50
	a, b := dotHost().Arrays["a"], dotHost().Arrays["b"]
	for _, window := range []time.Duration{0, 2 * time.Millisecond} {
		s := coalescingDot(t, window)
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					n := 1 + (g+i)%8
					res, err := s.Invoke("dot", map[string]int32{"n": int32(n), "s": 0}, dotHost())
					if err != nil {
						t.Errorf("goroutine %d, invocation %d: %v", g, i, err)
						return
					}
					var want int32
					for j := 0; j < n; j++ {
						want += a[j] * b[j]
					}
					if got := res.LiveOuts["s"]; got != want || !res.OnCGRA {
						t.Errorf("goroutine %d, invocation %d: s = %d on CGRA %t, want %d on the CGRA", g, i, got, res.OnCGRA, want)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		t.Logf("window %v: %.0f invocations/s", window, goroutines*iters/time.Since(start).Seconds())
		if window > 0 {
			reg := s.Metrics()
			idle := reg.Counter("cgra_run_batch_solo_total", obs.L("reason", "idle")).Value()
			batched := reg.Counter("cgra_run_batched_total").Value()
			if idle+batched != goroutines*iters {
				t.Errorf("solo{idle} %d + batched %d = %d, want %d invocations", idle, batched, idle+batched, goroutines*iters)
			}
			var passes int64
			for _, reason := range []string{flushFull, flushReleased, flushLinger} {
				passes += reg.Counter("cgra_run_batch_flush_total", obs.L("reason", reason)).Value()
			}
			t.Logf("solo{idle} %d, batched %d lanes over %d passes", idle, batched, passes)
		}
		s.Close()
	}
}
