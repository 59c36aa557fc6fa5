package system

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cgra/internal/fault"
	"cgra/internal/ir"
	"cgra/internal/sched"
)

// TestSoakConcurrentFaulty is the service soak: several goroutines drive a
// mixed-kernel workload through one system while faults are armed, the
// scheduler explain log is attached, and a scraper reads Stats, the
// Prometheus export and the breaker states throughout. Run under -race
// this is the locking-discipline proof for the whole service; the
// functional assertions are that no invocation is lost and every result
// stays correct across host runs, accelerated runs, fault recovery and
// degradation.
func TestSoakConcurrentFaulty(t *testing.T) {
	s := newSystem(t, 10_000)
	defer s.Close()
	s.Opts.Sched.Explain = sched.NewExplainLog()
	for _, src := range []string{
		dotSrc,
		`kernel scale(array a, in n, in f) { i = 0; while (i < n) { a[i] = a[i] * f; i = i + 1; } }`,
		`kernel tiny(inout r) { r = r + 1; }`,
	} {
		if err := s.Register(mustParse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.InjectFaults(fault.Plan{
		Seed:   7,
		Window: 128,
		Faults: []fault.Fault{
			{Kind: fault.TransientBit, PE: 2},
			{Kind: fault.PermanentPE, PE: 5},
		},
	}); err != nil {
		t.Fatal(err)
	}

	const workers = 6
	const perWorker = 30
	const dotWant = 1*8 + 2*7 + 3*6 + 4*5 + 5*4 + 6*3 + 7*2 + 8*1
	var issued, completed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				issued.Add(1)
				switch (w + i) % 3 {
				case 0:
					res, err := s.Invoke("dot", map[string]int32{"n": 8, "s": 0}, dotHost())
					if err != nil {
						t.Errorf("worker %d dot %d: %v", w, i, err)
						return
					}
					if res.LiveOuts["s"] != dotWant {
						t.Errorf("worker %d dot %d: s = %d, want %d", w, i, res.LiveOuts["s"], dotWant)
					}
				case 1:
					h := ir.NewHost()
					h.Arrays["a"] = []int32{3, -1, 7, 0}
					res, err := s.Invoke("scale", map[string]int32{"n": 4, "f": 5}, h)
					if err != nil {
						t.Errorf("worker %d scale %d: %v", w, i, err)
						return
					}
					for j, want := range []int32{15, -5, 35, 0} {
						if h.Arrays["a"][j] != want {
							t.Errorf("worker %d scale %d: a[%d] = %d, want %d (onCGRA=%v)",
								w, i, j, h.Arrays["a"][j], want, res.OnCGRA)
						}
					}
				default:
					res, err := s.Invoke("tiny", map[string]int32{"r": int32(i)}, ir.NewHost())
					if err != nil {
						t.Errorf("worker %d tiny %d: %v", w, i, err)
						return
					}
					if res.LiveOuts["r"] != int32(i)+1 {
						t.Errorf("worker %d tiny %d: r = %d, want %d", w, i, res.LiveOuts["r"], i+1)
					}
				}
				completed.Add(1)
			}
		}()
	}

	// Concurrent scraper: Stats, Prometheus export and breaker states must
	// never race with invocations, synthesis or recovery.
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Stats()
			_ = s.BreakerState("dot")
			var sb strings.Builder
			if err := s.Metrics().WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	scraper.Wait()
	s.Quiesce()

	if issued.Load() != completed.Load() {
		t.Errorf("lost invocations: issued %d, completed %d", issued.Load(), completed.Load())
	}
	st := s.Stats()
	if st.Invocations != issued.Load() {
		t.Errorf("system counted %d invocations, issued %d", st.Invocations, issued.Load())
	}
	if st.AMIDARRuns+st.CGRARuns < st.Invocations {
		t.Errorf("runs (%d host + %d cgra) < invocations %d", st.AMIDARRuns, st.CGRARuns, st.Invocations)
	}
	var sb strings.Builder
	if err := s.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cgra_synth_jobs_total", "cgra_breaker_state", "cgra_synth_queue_depth"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The service must keep serving after Close (no new synthesis only).
	s.Close()
	res, err := s.Invoke("dot", map[string]int32{"n": 8, "s": 0}, dotHost())
	if err != nil || res.LiveOuts["s"] != dotWant {
		t.Errorf("post-Close invocation: res=%+v err=%v", res, err)
	}
}

// TestBreakerOpensAndRecovers walks the breaker through the full service
// loop: repeated synthesis failures open it (observable via BreakerState
// and the metrics), invocations are shed to the host while open, and after
// the cool-down a successful half-open probe closes it and the kernel
// finally lands on the CGRA.
func TestBreakerOpensAndRecovers(t *testing.T) {
	s := newSystem(t, 1)
	defer s.Close()
	// Every synthesis attempt fails until the compiler is fixed.
	var fixed atomic.Bool
	s.CompileHook = func(context.Context, string) error {
		if fixed.Load() {
			return nil
		}
		return errors.New("compiler down")
	}
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	invoke := func(i int) *Result { return invokeDot(t, s, i) }

	// breakerThreshold failed synthesis attempts trip the breaker.
	for i := 0; i < breakerThreshold; i++ {
		res := invoke(i)
		if !res.Synthesized {
			t.Fatalf("attempt %d: synthesis not enqueued (breaker %s)", i, s.BreakerState("dot"))
		}
		s.Quiesce()
	}
	if got := s.BreakerState("dot"); got != "open" {
		t.Fatalf("breaker after %d failures = %q, want open", breakerThreshold, got)
	}
	// Open: invocations are shed to the host, no synthesis admitted.
	res := invoke(breakerThreshold)
	if res.Synthesized || res.OnCGRA {
		t.Fatalf("open breaker admitted work: %+v", res)
	}
	if st := s.Stats(); st.SynthSheds != 0 {
		t.Errorf("breaker shed must not count as queue shed: %+v", st)
	}

	// Cool down, fix the compiler, and let the half-open probe in.
	time.Sleep(breakerCooldown + 20*time.Millisecond)
	fixed.Store(true)
	res = invoke(breakerThreshold + 1)
	if !res.Synthesized {
		t.Fatalf("half-open probe not admitted (breaker %s)", s.BreakerState("dot"))
	}
	s.Quiesce()
	if got := s.BreakerState("dot"); got != "closed" {
		t.Fatalf("breaker after successful probe = %q, want closed", got)
	}
	if !s.Synthesized("dot") {
		t.Fatal("kernel not installed after probe synthesis")
	}
	if res := invoke(breakerThreshold + 2); !res.OnCGRA {
		t.Error("closed breaker did not serve from the CGRA")
	}

	var sb strings.Builder
	if err := s.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`cgra_breaker_transitions_total{kernel="dot",to="open"}`,
		`cgra_breaker_transitions_total{kernel="dot",to="half_open"}`,
		`cgra_breaker_transitions_total{kernel="dot",to="closed"}`,
		`cgra_synth_jobs_total{result="error"}`,
		`cgra_synth_jobs_total{result="ok"}`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSynthDeadlineCounted: an impossible compile deadline must abort the
// background job, count a deadline hit and charge the breaker — and a
// later attempt with a sane deadline must still succeed.
func TestSynthDeadlineCounted(t *testing.T) {
	s := newSystem(t, 1)
	defer s.Close()
	s.compileDeadline = time.Nanosecond
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	res := invokeDot(t, s, 0)
	if !res.Synthesized {
		t.Fatal("synthesis not enqueued")
	}
	s.Quiesce()
	if s.Synthesized("dot") {
		t.Fatal("kernel installed despite an expired compile deadline")
	}
	st := s.Stats()
	if st.DeadlineHits == 0 {
		t.Errorf("no deadline hit recorded: %+v", st)
	}
	var sb strings.Builder
	if err := s.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `cgra_synth_jobs_total{result="deadline"}`) {
		t.Error("deadline job result not exported")
	}

	s.compileDeadline = compileDeadline
	invokeDot(t, s, 1)
	s.Quiesce()
	if !s.Synthesized("dot") {
		t.Fatal("kernel not synthesized once the deadline was sane")
	}
}

// TestInvokeCtxCancelled: caller cancellation surfaces as the context
// error — on the host path and on the accelerated path — and is never
// misdiagnosed as a hardware fault.
func TestInvokeCtxCancelled(t *testing.T) {
	s := newSystem(t, 1_000_000)
	defer s.Close()
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.InvokeCtx(ctx, "dot", map[string]int32{"n": 8, "s": 0}, dotHost()); !errors.Is(err, context.Canceled) {
		t.Fatalf("host path: want context.Canceled, got %v", err)
	}
	if err := s.Synthesize("dot"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InvokeCtx(ctx, "dot", map[string]int32{"n": 8, "s": 0}, dotHost()); !errors.Is(err, context.Canceled) {
		t.Fatalf("accelerated path: want context.Canceled, got %v", err)
	}
	if st := s.Stats(); st.FaultsDetected != 0 || st.Fallbacks != 0 {
		t.Errorf("cancellation misdiagnosed as a fault: %+v", st)
	}
}

// slowKernelSrc builds a kernel whose synthesis takes on the order of a
// second (wide straight-line loop body, heavily unrolled) — a blocker that
// keeps the single synthesis worker busy while other requests arrive.
func slowKernelSrc(stmts int) string {
	var b strings.Builder
	b.WriteString("kernel slow(array a, array b, in n, inout s) {\n s = 0; i = 0;\n while (i < n) {\n")
	b.WriteString("  v0 = a[i] + b[i];\n")
	for j := 1; j <= stmts; j++ {
		fmt.Fprintf(&b, "  v%d = (v%d * %d + a[i]) ^ (v%d >> %d);\n", j, j-1, j+3, j-1, j%7+1)
	}
	fmt.Fprintf(&b, "  s = s + v%d;\n  i = i + 1;\n }\n}\n", stmts)
	return b.String()
}

// TestQueueShedding: one worker, a queue of one, and a slow compile in
// flight — the third concurrent synthesis request must be shed (counted,
// never blocking the invocation path) and re-admitted by a later run.
func TestQueueShedding(t *testing.T) {
	s := newSystem(t, 1)
	defer s.Close()
	s.synthWorkers = 1
	s.synthQueue = 1
	s.Opts.UnrollFactor = 8
	for _, src := range []string{
		slowKernelSrc(100),
		`kernel k2(inout r) { r = r * 3 + 1; }`,
		`kernel k3(inout r) { r = r - 2; }`,
	} {
		if err := s.Register(mustParse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	h := func() *ir.Host {
		hh := ir.NewHost()
		hh.Arrays["a"] = []int32{1, 2, 3, 4}
		hh.Arrays["b"] = []int32{4, 3, 2, 1}
		return hh
	}
	// The slow kernel occupies the worker (or the queue slot) for ~1s.
	if _, err := s.Invoke("slow", map[string]int32{"n": 4, "s": 0}, h()); err != nil {
		t.Fatal(err)
	}
	// Both of these cross the threshold immediately; between them they need
	// two slots but at most one is free, so at least one is shed.
	if _, err := s.Invoke("k2", map[string]int32{"r": 1}, ir.NewHost()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Invoke("k3", map[string]int32{"r": 1}, ir.NewHost()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SynthSheds == 0 {
		t.Errorf("no synthesis request shed: %+v", st)
	}
	s.Quiesce()
	// The shed kernel is re-admitted by its next profiled host run. With one
	// worker and a queue of one, k3 could find the slot still holding k2
	// and be shed again: let k2's synthesis land first.
	if _, err := s.Invoke("k2", map[string]int32{"r": 1}, ir.NewHost()); err != nil {
		t.Fatal(err)
	}
	s.Quiesce()
	if _, err := s.Invoke("k3", map[string]int32{"r": 1}, ir.NewHost()); err != nil {
		t.Fatal(err)
	}
	s.Quiesce()
	if !s.Synthesized("k2") || !s.Synthesized("k3") {
		t.Errorf("shed kernels never re-admitted: k2=%v k3=%v",
			s.Synthesized("k2"), s.Synthesized("k3"))
	}
}
