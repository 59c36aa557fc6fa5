package system

import (
	"strings"
	"sync"
	"testing"
)

// TestConcurrentInvocations drives a system from several goroutines while
// another goroutine scrapes Stats and the metrics registry. Run under
// -race this verifies the locking discipline: invocations read the
// dispatch snapshot and the kernel's record without the system lock,
// metric reads go through atomics only.
func TestConcurrentInvocations(t *testing.T) {
	s := newSystem(t, 15_000)
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	args := map[string]int32{"n": 8, "s": 0}
	var want int32 = 1*8 + 2*7 + 3*6 + 4*5 + 5*4 + 6*3 + 7*2 + 8*1

	const workers = 4
	const perWorker = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				res, err := s.Invoke("dot", args, dotHost())
				if err != nil {
					errs <- err
					return
				}
				if res.LiveOuts["s"] != want {
					t.Errorf("s = %d, want %d", res.LiveOuts["s"], want)
				}
			}
		}()
	}
	// Concurrent scrapers: Stats snapshots and Prometheus exports must not
	// race with the invocations.
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
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Invocations != workers*perWorker {
		t.Errorf("invocations = %d, want %d", st.Invocations, workers*perWorker)
	}
	if st.AMIDARRuns+st.CGRARuns < st.Invocations {
		t.Errorf("runs (%d host + %d cgra) < invocations %d", st.AMIDARRuns, st.CGRARuns, st.Invocations)
	}
	// The workers may all have finished before the background compile
	// landed; wait for it, then verify the accelerated path serves.
	s.Quiesce()
	if !s.Synthesized("dot") {
		t.Error("dot never synthesized despite crossing the threshold")
	}
	res, err := s.Invoke("dot", args, dotHost())
	if err != nil {
		t.Fatal(err)
	}
	if !res.OnCGRA {
		t.Error("post-synthesis invocation did not run on the CGRA")
	}
	// The synthesis run must have exported compile-phase metrics.
	var sb strings.Builder
	if err := s.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, wantS := range []string{
		"cgra_system_invocations_total",
		`cgra_system_runs_total{engine="cgra"}`,
		`cgra_compile_phase_seconds{phase="total"}`,
	} {
		if !strings.Contains(sb.String(), wantS) {
			t.Errorf("metrics missing %q", wantS)
		}
	}
}
