// Same-artifact request coalescing for /v1/run: requests that target the
// same installed artifact inside a small linger window are collected into
// one batch and executed as data-parallel lanes of a single engine pass
// (system.InvokeBatch), singleflight-style — whichever goroutine closes
// the batch (the lane that fills it, the linger timer, or a
// deadline-pressed joiner) executes it, and every waiter receives its own
// lane's result.
//
// Batching is strictly opportunistic and never trades correctness or the
// latency contract for throughput:
//
//   - only kernels that would dispatch to the predecoded engine batch
//     (system.Batchable); cold or host-bound kernels run solo,
//   - a request whose announced deadline cannot absorb the linger window
//     runs solo; one that can start but not wait flushes the open batch
//     immediately (flush reason "deadline"),
//   - brownout/degraded requests never reach the batcher (they are served
//     by the host interpreter before /v1/run's handler runs), and a
//     request can opt out per-call with "no_batch": true,
//   - an open batch flushes even while the server drains: the linger timer
//     keeps running during http.Server.Shutdown and the system is closed
//     only after in-flight handlers (the waiters) return.
package server

import (
	"context"
	"net/http"
	"sync"
	"time"

	"cgra/internal/ir"
	"cgra/internal/obs"
	"cgra/internal/system"
)

// Batch flush reasons (the label values of cgra_run_batch_flush_total).
const (
	flushFull     = "full"
	flushLinger   = "linger"
	flushDeadline = "deadline"
)

// batchSizeBuckets spans solo-sized flushes to the largest lane counts.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// batchLane is one request waiting inside a batch. done is closed by the
// flusher after out/lanes/reason are filled in.
type batchLane struct {
	args     map[string]int32
	host     *ir.Host
	deadline time.Duration
	done     chan struct{}
	out      system.BatchOutcome
	lanes    int
	reason   string
}

// runBatch is one open (or flushing) batch for a single artifact key.
type runBatch struct {
	kernel string
	key    string
	lanes  []*batchLane
	timer  *time.Timer
	closed bool
}

// runBatcher coalesces /v1/run requests per artifact key.
type runBatcher struct {
	sys      *system.System
	window   time.Duration
	maxLanes int
	fallback time.Duration // batch execution deadline floor

	mu   sync.Mutex
	open map[string]*runBatch

	batched     *obs.Counter
	sizeHist    *obs.Histogram
	flushes     map[string]*obs.Counter
	soloLateral map[string]*obs.Counter
}

func newRunBatcher(sys *system.System, reg *obs.Registry, window time.Duration, maxLanes int, fallback time.Duration) *runBatcher {
	if maxLanes <= 0 {
		maxLanes = 16
	}
	reg.Help("cgra_run_batched_total", "run requests served through a coalesced batch")
	reg.Help("cgra_run_batch_size", "lanes per flushed run batch")
	reg.Help("cgra_run_batch_flush_total", "batch flushes by reason (full|linger|deadline)")
	reg.Help("cgra_run_batch_solo_total", "batch-eligible run requests that ran solo, by reason")
	return &runBatcher{
		sys:      sys,
		window:   window,
		maxLanes: maxLanes,
		fallback: fallback,
		open:     map[string]*runBatch{},
		batched:  reg.Counter("cgra_run_batched_total"),
		sizeHist: reg.Histogram("cgra_run_batch_size", batchSizeBuckets),
		flushes: map[string]*obs.Counter{
			flushFull:     reg.Counter("cgra_run_batch_flush_total", obs.L("reason", flushFull)),
			flushLinger:   reg.Counter("cgra_run_batch_flush_total", obs.L("reason", flushLinger)),
			flushDeadline: reg.Counter("cgra_run_batch_flush_total", obs.L("reason", flushDeadline)),
		},
		soloLateral: map[string]*obs.Counter{
			"deadline": reg.Counter("cgra_run_batch_solo_total", obs.L("reason", "deadline")),
			"cold":     reg.Counter("cgra_run_batch_solo_total", obs.L("reason", "cold")),
		},
	}
}

// submit joins (or opens) the batch for key. It returns the caller's lane,
// plus the batch to flush when the caller must do so itself: because its
// lane filled the batch (reason full) or because its deadline cannot wait
// out the linger (reason deadline, rush=true).
func (b *runBatcher) submit(kernel, key string, ln *batchLane, rush bool) (bt *runBatch, flushReason string) {
	b.mu.Lock()
	bt = b.open[key]
	if bt == nil || bt.closed || len(bt.lanes) >= b.maxLanes {
		bt = &runBatch{kernel: kernel, key: key}
		b.open[key] = bt
		bt.timer = time.AfterFunc(b.window, func() { b.flush(bt, flushLinger) })
	}
	bt.lanes = append(bt.lanes, ln)
	full := len(bt.lanes) >= b.maxLanes
	b.mu.Unlock()
	switch {
	case full:
		return bt, flushFull
	case rush:
		return bt, flushDeadline
	}
	return bt, ""
}

// flush closes the batch and executes it in the calling goroutine. Exactly
// one caller wins; late flush attempts (e.g. the linger timer racing a
// full-batch flush) are no-ops.
func (b *runBatcher) flush(bt *runBatch, reason string) {
	b.mu.Lock()
	if bt.closed {
		b.mu.Unlock()
		return
	}
	bt.closed = true
	if b.open[bt.key] == bt {
		delete(b.open, bt.key)
	}
	lanes := bt.lanes
	b.mu.Unlock()
	bt.timer.Stop()

	b.flushes[reason].Inc()
	b.sizeHist.Observe(float64(len(lanes)))
	b.batched.Add(int64(len(lanes)))

	// The batch runs under its own context: one waiter's cancellation must
	// not kill its siblings' lanes. The timeout is the widest lane
	// deadline (every lane's own deadline is enforced again by its waiting
	// handler).
	budget := b.fallback
	for _, ln := range lanes {
		if ln.deadline > budget {
			budget = ln.deadline
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()

	reqs := make([]system.BatchRequest, len(lanes))
	for i, ln := range lanes {
		reqs[i] = system.BatchRequest{Args: ln.args, Host: ln.host}
	}
	outs := b.sys.InvokeBatch(ctx, bt.kernel, reqs)
	for i, ln := range lanes {
		ln.out = outs[i]
		ln.lanes = len(lanes)
		ln.reason = reason
		close(ln.done)
	}
}

// serveBatched routes one decoded /v1/run request through the coalescer.
// handled=false means the request is not batchable right now (cold kernel,
// deadline too tight) and the caller should run the scalar path; the host
// is not touched in that case.
func (s *Server) serveBatched(w http.ResponseWriter, r *http.Request, req *RunRequest, host *ir.Host) (code int, handled bool) {
	b := s.batcher
	key, ok := s.sys.InstalledKey(req.Kernel)
	if !ok || !s.sys.Batchable(req.Kernel) {
		b.soloLateral["cold"].Inc()
		return 0, false
	}
	// The effective deadline decides whether the request can afford to
	// linger: explicit per-request deadline, else the announced header,
	// else the server default (always wide enough).
	eff := s.deadline
	if req.DeadlineMS > 0 {
		eff = time.Duration(req.DeadlineMS) * time.Millisecond
	} else if dl := clientDeadline(r); dl > 0 {
		eff = dl
	}
	if eff < 2*b.window {
		// Too tight to absorb any linger at all: run solo.
		b.soloLateral["deadline"].Inc()
		return 0, false
	}
	// Tight-but-workable deadlines join and flush immediately, taking any
	// already-lingering lanes with them.
	rush := eff < 8*b.window

	sp := obs.ContextSpan(r.Context()).StartChild("batch")
	ln := &batchLane{
		args:     req.Args,
		host:     host,
		deadline: eff,
		done:     make(chan struct{}),
	}
	bt, reason := b.submit(req.Kernel, key, ln, rush)
	if reason != "" {
		b.flush(bt, reason)
	}
	select {
	case <-ln.done:
	case <-r.Context().Done():
		sp.Annotate("flush", "abandoned")
		sp.Finish()
		return writeError(w, r, http.StatusGatewayTimeout, codeDeadline,
			"request cancelled while coalesced"), true
	}
	sp.Set("lanes", int64(ln.lanes))
	sp.Annotate("flush", ln.reason)
	sp.Finish()

	if ln.out.Err != nil {
		if system.ErrIsDeadline(ln.out.Err) {
			return writeError(w, r, http.StatusGatewayTimeout, codeDeadline, ln.out.Err.Error()), true
		}
		return writeError(w, r, http.StatusUnprocessableEntity, codeRunFailed, ln.out.Err.Error()), true
	}
	rsp := obs.ContextSpan(r.Context()).StartChild("respond")
	defer rsp.Finish()
	return writeJSON(w, http.StatusOK, RunResponse{
		LiveOuts:   ln.out.Res.LiveOuts,
		Arrays:     host.Arrays,
		Cycles:     ln.out.Res.Cycles,
		OnCGRA:     ln.out.Res.OnCGRA,
		Batched:    true,
		BatchLanes: ln.lanes,
		TraceID:    traceIDOf(r),
	}), true
}
