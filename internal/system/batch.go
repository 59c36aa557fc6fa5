// Same-artifact coalescing and the lane ladder. Invocations of one
// installed entry that arrive inside a small linger window run as
// data-parallel lanes of a single predecoded engine pass (sim.RunBatch),
// singleflight-style: whichever goroutine closes the batch — the lane that
// fills it, the linger timer, or a deadline-pressed joiner — runs the pass,
// and every waiter settles its own lane. The batch hangs off the installed
// entry, whose pointer identity is the artifact identity.
//
// Coalescing is opportunistic: only an entry that would dispatch to the
// lane engine right now joins, a deadline that cannot absorb the linger
// runs alone or flushes at once (admitLane), every lane runs on a scratch
// heap and is accepted or recovered exactly like a solo run, and an open
// batch outlives a draining server because the linger timer keeps running
// while each waiter is still inside InvokeCtx.
package system

import (
	"context"
	"fmt"
	"slices"
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

// maxBatchLanes bounds one batch; the lane that fills it flushes without
// waiting out the window.
const maxBatchLanes = 16

// Batch flush reasons (the label values of cgra_run_batch_flush_total).
const (
	flushFull     = "full"
	flushLinger   = "linger"
	flushDeadline = "deadline"
)

// coalescer is the linger window and the counters of the run coalescer.
type coalescer struct {
	window  time.Duration
	batched *obs.Counter
	size    *obs.Histogram
	flushes map[string]*obs.Counter
	solo    map[string]*obs.Counter
}

// CoalesceRuns turns same-artifact coalescing on: eligible invocations
// linger up to window for siblings to share an engine pass with. Call it
// before the first invocation; a window of zero or less leaves it off.
func (s *System) CoalesceRuns(window time.Duration) {
	if window <= 0 {
		return
	}
	s.reg.Help("cgra_run_batched_total", "run requests served through a coalesced batch")
	s.reg.Help("cgra_run_batch_size", "lanes per flushed run batch")
	s.reg.Help("cgra_run_batch_flush_total", "batch flushes by reason (full|linger|deadline)")
	s.reg.Help("cgra_run_batch_solo_total", "batch-eligible run requests that ran solo, by reason")
	co := &coalescer{
		window:  window,
		batched: s.reg.Counter("cgra_run_batched_total"),
		size:    s.reg.Histogram("cgra_run_batch_size", []float64{1, 2, 4, 8, 16, 32, 64}),
		flushes: map[string]*obs.Counter{},
		solo:    map[string]*obs.Counter{},
	}
	for _, reason := range []string{flushFull, flushLinger, flushDeadline} {
		co.flushes[reason] = s.reg.Counter("cgra_run_batch_flush_total", obs.L("reason", reason))
	}
	for _, reason := range []string{"deadline", "cold"} {
		co.solo[reason] = s.reg.Counter("cgra_run_batch_solo_total", obs.L("reason", reason))
	}
	s.co = co
}

// lane is one invocation waiting inside a batch. The flusher fills scratch
// and run — the private heap the pass ran this lane on and what came of
// it — then closes done.
type lane struct {
	req     BatchRequest
	done    chan struct{}
	scratch *ir.Host
	run     sim.BatchResult
}

// batch is one open (or flushing) batch of an installed entry. lanes and
// closed are guarded by the entry's batchMu; reason is written by the
// flusher before it closes the first lane's done.
type batch struct {
	lanes  []*lane
	timer  *time.Timer
	closed bool
	reason string
}

// laneEngine returns the predecoded engine when a run of ent would take
// the lane path right now: a compiled entry, fault-free hardware, no
// cross-check (both take runAccelerated: a fault plan needs the hooked
// scalar walk, the cross-check runs there too) and a program that
// predecodes. nil otherwise.
func (s *System) laneEngine(ent *entry) *sim.Decoded {
	if ent == nil || s.inj.Load() != nil || s.Policy.CrossCheck {
		return nil
	}
	eng, err := ent.c.Engine()
	if err != nil {
		return nil
	}
	return eng
}

// admitLane decides, once per invocation, whether it joins ent's batch: it
// returns the lane engine to join with, nil to run alone (no installed or
// lane-capable entry: "cold"; under 2 x window left: "deadline"). rush
// means the deadline (under 8 x window) lets the invocation start a batch
// but not wait out the linger.
func (s *System) admitLane(ctx context.Context, ent *entry) (eng *sim.Decoded, rush bool) {
	if s.co == nil {
		return nil, false
	}
	if eng = s.laneEngine(ent); eng == nil {
		s.co.solo["cold"].Inc()
		return nil, false
	}
	if dl, ok := ctx.Deadline(); ok {
		left := time.Until(dl)
		if left < 2*s.co.window {
			s.co.solo["deadline"].Inc()
			return nil, false
		}
		rush = left < 8*s.co.window
	}
	return eng, rush
}

// coalesce joins (or opens) ent's batch, flushes it when this lane filled
// it or cannot wait, and settles this lane's own outcome under its own
// context once the pass has run.
func (s *System) coalesce(ctx context.Context, name string, ent *entry, eng *sim.Decoded, rush bool, args map[string]int32, host *ir.Host) (*Result, error) {
	sp := obs.ContextSpan(ctx).StartChild("batch")
	defer sp.Finish()
	ln := &lane{req: BatchRequest{Args: args, Host: host}, done: make(chan struct{})}

	ent.batchMu.Lock()
	bt := ent.open
	if bt == nil {
		bt = &batch{}
		ent.open = bt
		bt.timer = time.AfterFunc(s.co.window, func() { s.flush(ent, eng, bt, flushLinger) })
	}
	bt.lanes = append(bt.lanes, ln)
	reason := ""
	switch {
	case len(bt.lanes) >= maxBatchLanes:
		reason = flushFull
		ent.open = nil // the next arrival opens a fresh batch
	case rush:
		reason = flushDeadline
	}
	ent.batchMu.Unlock()
	if reason != "" {
		s.flush(ent, eng, bt, reason)
	}

	select {
	case <-ln.done:
	case <-ctx.Done():
		// Still lingering: withdraw, so the abandoned lane neither runs nor
		// delays its siblings. Already flushing: the pass is reading this
		// lane's heap; it is one engine run, which the watchdog bounds.
		ent.batchMu.Lock()
		lingering := !bt.closed
		if lingering {
			bt.lanes = slices.DeleteFunc(bt.lanes, func(l *lane) bool { return l == ln })
		}
		ent.batchMu.Unlock()
		if lingering {
			sp.Annotate("flush", "abandoned")
			return nil, fmt.Errorf("system: invocation of %q cancelled while coalesced: %w", name, ctx.Err())
		}
		<-ln.done
	}
	sp.Set("lanes", int64(len(bt.lanes)))
	sp.Annotate("flush", bt.reason)
	res, err := s.settle(ctx, name, ent, ln.req, ln.scratch, ln.run)
	if err == nil {
		res.Lanes = len(bt.lanes)
	}
	return res, err
}

// flush closes the batch and runs its pass in the calling goroutine.
// Exactly one caller wins; late attempts (the linger timer racing a
// full-batch flush) are no-ops.
func (s *System) flush(ent *entry, eng *sim.Decoded, bt *batch, reason string) {
	ent.batchMu.Lock()
	if bt.closed {
		ent.batchMu.Unlock()
		return
	}
	bt.closed = true
	if ent.open == bt {
		ent.open = nil
	}
	lanes := bt.lanes
	ent.batchMu.Unlock()
	bt.timer.Stop()
	if len(lanes) == 0 {
		return // every lane withdrew
	}
	bt.reason = reason
	s.co.flushes[reason].Inc()
	s.co.size.Observe(float64(len(lanes)))
	s.co.batched.Add(int64(len(lanes)))

	reqs := make([]BatchRequest, len(lanes))
	for i, ln := range lanes {
		reqs[i] = ln.req
	}
	// The pass runs under no waiter's context: one cancellation must not
	// kill sibling lanes. Each waiter settles its lane under its own.
	scratch, runs := s.enginePass(context.Background(), ent, eng, reqs)
	for i, ln := range lanes {
		ln.scratch, ln.run = scratch[i].Host, runs[i]
		close(ln.done)
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
	if eng == nil || !ent.br.allow(time.Now(), s.breakerCooldown()) {
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
	limit := ent.maxCycles
	if limit == 0 {
		limit = s.watchdogCap()
	}
	scratch = make([]BatchRequest, len(reqs))
	for i, r := range reqs {
		scratch[i] = BatchRequest{Args: r.Args, Host: r.Host.Clone()}
	}
	return scratch, eng.RunBatch(ctx, limit, scratch)
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
