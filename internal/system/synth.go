// Background synthesis: the bounded worker pool that runs the tool flow
// off the invocation path. A profiled host run that crosses the threshold
// enqueues a job and keeps going; the compiled kernel is patched into the
// dispatch snapshot when the job lands. One job per kernel is in flight at
// a time (singleflight), the queue is bounded (overflow is shed and
// re-admitted by a later profiled run), and every attempt runs under the
// compile deadline.
package system

import (
	"context"
	"time"

	"cgra/internal/obs"
)

// synthJob asks the pool to synthesize one kernel. gen pins the dispatch
// generation the request was made against: if the array degrades while the
// job is queued or compiling, the result targets a dead composition and is
// discarded as stale.
type synthJob struct {
	name string
	gen  uint64
}

// startPool lazily starts the workers on first use.
func (s *System) startPool() {
	s.poolOnce.Do(func() {
		s.queue = make(chan synthJob, s.synthQueue)
		for i := 0; i < s.synthWorkers; i++ {
			go s.synthWorker()
		}
	})
}

// enqueueSynthLocked admits one synthesis request (caller holds s.mu and
// has already checked the singleflight, host-only and breaker gates).
// Returns false when the queue is full or the system is closed: the
// request is shed, the shed counter bumped, and a later profiled host run
// will re-admit the kernel.
func (s *System) enqueueSynthLocked(name string) bool {
	if s.closed.Load() {
		return false
	}
	s.startPool()
	select {
	case s.queue <- synthJob{name: name, gen: s.state.Load().gen}:
		s.pendingSynth[name] = true
		s.jobs.Add(1)
		s.ctr.queueDepth.Add(1)
		return true
	default:
		s.ctr.sheds.Add(1)
		return false
	}
}

func (s *System) synthWorker() {
	for {
		select {
		case <-s.stop:
			return
		case job := <-s.queue:
			s.ctr.queueDepth.Add(-1)
			s.runSynthJob(job)
			s.jobs.Done()
		}
	}
}

// runSynthJob compiles one kernel under the deadline (no locks held during
// the compile) and lands the outcome.
func (s *System) runSynthJob(job synthJob) {
	ctx, cancel := s.compileCtx(context.Background())
	defer cancel()
	ent, err := s.compileKernel(ctx, job.name)
	s.completeSynthJob(job, ent, err)
}

// completeSynthJob classifies one finished job — ok, deadline, error or
// stale — and updates the dispatch snapshot, the breaker and the metrics
// accordingly.
func (s *System) completeSynthJob(job synthJob, ent *entry, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pendingSynth, job.name)
	br := s.breakerForLocked(job.name)
	result := "ok"
	switch {
	case s.state.Load().gen != job.gen:
		// The array degraded underneath the compile; the result targets a
		// retired composition. Discard without charging the breaker.
		result = "stale"
		br.cancelProbe()
	case err == nil:
		s.installLocked(job.name, ent)
		br.success()
	case ErrIsDeadline(err):
		result = "deadline"
		s.ctr.deadlineHits.Add(1)
		br.failure(time.Now(), breakerThreshold)
	default:
		result = "error"
		br.failure(time.Now(), breakerThreshold)
	}
	s.reg.Counter("cgra_synth_jobs_total", obs.L("result", result)).Add(1)
}

// Quiesce blocks until every queued and in-flight synthesis job has
// landed. Tests and batch tools call it to observe the post-synthesis
// steady state; a serving system never needs to.
func (s *System) Quiesce() { s.jobs.Wait() }

// Close drains the synthesis queue and stops the worker pool. Subsequent
// invocations still execute (host or already-compiled CGRA path) but no
// new synthesis is admitted. Idempotent.
func (s *System) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.jobs.Wait()
	close(s.stop)
}
