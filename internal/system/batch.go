// Same-artifact coalescing and the lane ladder. An eligible invocation runs
// at once, a batch of one on the solo path, while its installed entry has
// fewer than limit (GOMAXPROCS) runs in flight. Only at the limit does it
// queue as a lane of the entry's open batch, which runs as one predecoded
// engine pass (sim.RunBatch) on the first of three events: one of the
// entry's runs ends (released), it reaches 16 lanes (full), or the window
// has passed since it opened (linger). The window is a cap on queueing
// behind a busy artifact, not a cost every request pays: below saturation
// coalescing costs one mutex and one counter, and under saturation each
// batch is as large as the backlog.
//
// One of the batch's own waiters runs its pass and every waiter settles its
// own lane: each lane runs on a scratch heap and is accepted or recovered
// exactly like a solo run. An invocation with under 2 x window left never
// queues. A queued batch outlives a draining server, because its waiters
// are still inside InvokeCtx and the next release or the window flushes it.
package system

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"cgra/internal/ir"
	"cgra/internal/obs"
	"cgra/internal/sim"
)

// BatchRequest is one lane of a batched invocation: its live-ins and its
// host heap, which must not be shared with another concurrent invocation.
type BatchRequest = sim.BatchRequest

// BatchOutcome is one lane's result: exactly one of Res or Err is set.
type BatchOutcome struct {
	Res *Result
	Err error
}

// maxBatchLanes bounds one batch; the lane that fills it flushes it.
const maxBatchLanes = 16

// Batch flush reasons (the label values of cgra_run_batch_flush_total).
const (
	flushFull     = "full"
	flushReleased = "released"
	flushLinger   = "linger"
)

// coalescer is the run coalescer's queueing cap, run limit and counters.
type coalescer struct {
	window  time.Duration
	limit   int
	batched *obs.Counter
	size    *obs.Histogram
	wait    *obs.Histogram
	flushes map[string]*obs.Counter
	solo    map[string]*obs.Counter
}

// CoalesceRuns turns same-artifact coalescing on: an invocation that finds
// its artifact at GOMAXPROCS runs in flight queues, for at most window, for
// a shared engine pass. Call it before the first invocation; window <= 0
// leaves it off.
func (s *System) CoalesceRuns(window time.Duration) {
	if window <= 0 {
		return
	}
	s.reg.Help("cgra_run_batched_total", "run requests served through a coalesced batch")
	s.reg.Help("cgra_run_batch_size", "lanes per flushed run batch")
	s.reg.Help("cgra_run_batch_wait_seconds", "time a coalesced run request queued before its batch flushed")
	s.reg.Help("cgra_run_batch_flush_total", "batch flushes by reason (full|released|linger)")
	s.reg.Help("cgra_run_batch_solo_total", "batch-eligible run requests that ran solo, by reason (cold|deadline|idle)")
	co := &coalescer{
		window:  window,
		limit:   runtime.GOMAXPROCS(0),
		batched: s.reg.Counter("cgra_run_batched_total"),
		size:    s.reg.Histogram("cgra_run_batch_size", []float64{1, 2, 4, 8, 16, 32, 64}),
		wait:    s.reg.Histogram("cgra_run_batch_wait_seconds", []float64{0.0001, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.05}),
		flushes: map[string]*obs.Counter{},
		solo:    map[string]*obs.Counter{},
	}
	for _, reason := range []string{flushFull, flushReleased, flushLinger} {
		co.flushes[reason] = s.reg.Counter("cgra_run_batch_flush_total", obs.L("reason", reason))
	}
	for _, reason := range []string{"cold", "deadline", "idle"} {
		co.solo[reason] = s.reg.Counter("cgra_run_batch_solo_total", obs.L("reason", reason))
	}
	s.co = co
}

// lane is one invocation queued in a batch. The pass fills scratch and run:
// the private heap it ran this lane on and what came of it.
type lane struct {
	req     BatchRequest
	scratch *ir.Host
	run     sim.BatchResult
}

// batch is one queued (or flushing) batch of an installed entry: lanes and
// reason change under batchMu while it is ent.open, and pass runs it once.
type batch struct {
	lanes  []*lane
	timer  *time.Timer
	ready  chan struct{}
	reason string
	pass   sync.Once
}

// laneEngine returns the predecoded engine when a run of ent would take
// the lane path right now: a compiled entry, fault-free hardware, no
// cross-check (both take runAccelerated: a fault plan needs the hooked
// scalar walk, the cross-check runs there too) and a program that
// predecodes. nil otherwise.
func (s *System) laneEngine(ent *entry) *sim.Decoded {
	if ent == nil || s.plan.Load() != nil || s.crossCheck {
		return nil
	}
	eng, err := ent.c.Engine()
	if err != nil {
		return nil
	}
	return eng
}

// admitLane returns the lane engine an invocation of ent goes through the
// coalescer with, or nil to run it alone: coalescing is off, or there is
// no installed or lane-capable entry ("cold").
func (s *System) admitLane(ent *entry) *sim.Decoded {
	if s.co == nil {
		return nil
	}
	eng := s.laneEngine(ent)
	if eng == nil {
		s.co.solo["cold"].Inc()
	}
	return eng
}

// coalesce runs the invocation at once while ent has a free run slot, or
// when its deadline cannot absorb a queue; otherwise it queues a lane in
// ent's open batch and settles that lane under its own context once the
// pass has run.
func (s *System) coalesce(ctx context.Context, name string, ent *entry, eng *sim.Decoded, args map[string]int32, host *ir.Host) (*Result, error) {
	ent.batchMu.Lock()
	if ent.running < s.co.limit {
		ent.running++
		ent.batchMu.Unlock()
		s.co.solo["idle"].Inc()
		defer s.release(ent)
		res, err := s.runSolo(ctx, name, ent, args, host)
		if err == nil {
			res.Lanes = 1 // a batch of one: nothing was queued to share its pass
		}
		return res, err
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < 2*s.co.window {
		ent.batchMu.Unlock()
		s.co.solo["deadline"].Inc()
		return s.runSolo(ctx, name, ent, args, host)
	}
	bt := ent.open
	if bt == nil {
		bt = &batch{timer: time.NewTimer(s.co.window), ready: make(chan struct{})}
		ent.open = bt
	}
	ln := &lane{req: BatchRequest{Args: args, Host: host}}
	bt.lanes = append(bt.lanes, ln)
	if len(bt.lanes) == maxBatchLanes {
		ent.closeOpenLocked(flushFull)
	}
	ent.batchMu.Unlock()

	sp := obs.ContextSpan(ctx).StartChild("batch")
	defer sp.Finish()
	queued := time.Now()
	withdrawn := false
	select {
	case <-bt.ready:
	case <-bt.timer.C:
		ent.batchMu.Lock()
		if ent.open == bt {
			ent.closeOpenLocked(flushLinger)
		}
		ent.batchMu.Unlock()
	case <-ctx.Done():
		// Still queued: withdraw, so the abandoned lane neither runs nor
		// delays its siblings. Already closed: the pass reads this lane's
		// heap; it is one engine run, which the watchdog bounds.
		ent.batchMu.Lock()
		if withdrawn = ent.open == bt; withdrawn {
			bt.lanes = slices.DeleteFunc(bt.lanes, func(l *lane) bool { return l == ln })
			if len(bt.lanes) == 0 {
				ent.open = nil
				bt.timer.Stop()
			}
		}
		ent.batchMu.Unlock()
	}
	wait := time.Since(queued)
	sp.Set("wait_us", wait.Microseconds())
	s.co.wait.Observe(wait.Seconds())
	if withdrawn {
		sp.Annotate("flush", "abandoned")
		return nil, fmt.Errorf("system: invocation of %q cancelled while coalesced: %w", name, ctx.Err())
	}
	bt.pass.Do(func() { s.flush(ent, eng, bt) })
	sp.Set("lanes", int64(len(bt.lanes)))
	sp.Annotate("flush", bt.reason)
	res, err := s.settle(ctx, name, ent, ln.req, ln.scratch, ln.run)
	if err == nil {
		res.Lanes = len(bt.lanes)
	}
	return res, err
}

// closeOpenLocked closes ent's open batch to new lanes and wakes its waiters.
func (ent *entry) closeOpenLocked(reason string) {
	bt := ent.open
	ent.open = nil
	bt.reason = reason
	bt.timer.Stop()
	close(bt.ready)
}

// release ends one of ent's in-flight runs. A queued batch takes over the
// slot and wakes; one of its waiters, not the caller, runs the pass.
func (s *System) release(ent *entry) {
	ent.batchMu.Lock()
	if ent.open != nil {
		ent.closeOpenLocked(flushReleased)
	} else {
		ent.running--
	}
	ent.batchMu.Unlock()
}

// HoldRun takes a run slot of the named kernel's installed artifact, as a
// run in flight would, and returns the release step that ends it (nil when
// coalescing is off or nothing is installed): tests queue without timing.
func (s *System) HoldRun(name string) (release func()) {
	ent := s.state.Load().compiled[name]
	if s.co == nil || ent == nil {
		return nil
	}
	ent.batchMu.Lock()
	ent.running++
	ent.batchMu.Unlock()
	return func() { s.release(ent) }
}

// flush runs a closed batch's pass in the first of its waiters to get
// here. A released batch holds the slot its releaser handed over, and
// hands it on as soon as the pass is done.
func (s *System) flush(ent *entry, eng *sim.Decoded, bt *batch) {
	s.co.flushes[bt.reason].Inc()
	s.co.size.Observe(float64(len(bt.lanes)))
	s.co.batched.Add(int64(len(bt.lanes)))
	reqs := make([]BatchRequest, len(bt.lanes))
	for i, ln := range bt.lanes {
		reqs[i] = ln.req
	}
	// The pass runs under no waiter's context: one cancellation must not
	// kill sibling lanes. Each waiter settles its lane under its own.
	scratch, runs := s.enginePass(context.Background(), ent, eng, reqs)
	if bt.reason == flushReleased {
		s.release(ent)
	}
	for i, ln := range bt.lanes {
		ln.scratch, ln.run = scratch[i].Host, runs[i]
	}
}

// InvokeBatch executes N invocations of one kernel as data-parallel lanes
// of a single engine pass. Each lane gets its own scratch heap and its own
// outcome; a lane's fault goes through the scalar recovery ladder without
// touching its siblings. When the batch cannot run on the engine (no
// lane-capable entry, breaker open) every lane is a scalar InvokeCtx,
// preserving exactly the scalar semantics.
func (s *System) InvokeBatch(ctx context.Context, name string, reqs []BatchRequest) []BatchOutcome {
	outs := make([]BatchOutcome, len(reqs))
	ent := s.state.Load().compiled[name]
	eng := s.laneEngine(ent)
	if eng == nil || !ent.br.allow(time.Now(), breakerCooldown) {
		for i, r := range reqs {
			outs[i].Res, outs[i].Err = s.InvokeCtx(ctx, name, r.Args, r.Host)
		}
		return outs
	}
	s.ctr.invocations.Add(int64(len(reqs)))
	scratch, runs := s.enginePass(ctx, ent, eng, reqs)
	for i, r := range reqs {
		outs[i].Res, outs[i].Err = s.settle(ctx, name, ent, r, scratch[i].Host, runs[i])
	}
	return outs
}

// enginePass is the first half of the lane ladder, shared by InvokeBatch
// and the coalescer's flush: clone every lane's heap, run the clones as
// one pass under the entry's watchdog budget.
func (s *System) enginePass(ctx context.Context, ent *entry, eng *sim.Decoded, reqs []BatchRequest) (scratch []BatchRequest, runs []sim.BatchResult) {
	ctx, sp := obs.StartSpanCtx(ctx, "cgra.run_batch")
	defer sp.Finish()
	sp.Set("lanes", int64(len(reqs)))
	scratch = make([]BatchRequest, len(reqs))
	for i, r := range reqs {
		scratch[i] = BatchRequest{Args: r.Args, Host: r.Host.Clone()}
	}
	return scratch, eng.RunBatch(ctx, ent.maxCycles, scratch)
}

// settle is the second half, per lane: accept the run into the caller's
// heap, or treat its error exactly like a scalar detected fault.
func (s *System) settle(ctx context.Context, name string, ent *entry, req BatchRequest, scratch *ir.Host, run sim.BatchResult) (*Result, error) {
	if run.Err != nil {
		return s.recoverInvocation(ctx, name, fmt.Errorf("system: CGRA run of %q: %w", name, run.Err), req.Args, req.Host)
	}
	ent.br.success()
	return s.accept(req.Host, scratch, run.Res), nil
}
