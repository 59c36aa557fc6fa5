// Package drill holds the reference-checked load harnesses behind cgrad's
// -loadgen and -chaos modes and cgrasim's -soak. They share one
// case type (Case), one load loop (Load) and one reference check
// (ir.Compare, through Case.Check): every reply of every drill answers to
// the reference interpreter the same way. The drills differ only in what
// they stand up around the loop and what they assert after it.
package drill

import (
	"context"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"sort"
	"sync"
	"time"

	"cgra/internal/adpcm"
	"cgra/internal/fault"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/server"
	"cgra/internal/system"
	"cgra/internal/workload"
)

// Case is one kernel of a drill's load set: its source and inputs, and the
// reference interpreter's live-outs and heap for those inputs. The
// interpreter is deterministic, so the reference is computed once, when
// the case is built.
type Case struct {
	Name   string
	Source string
	Kernel *ir.Kernel
	Args   map[string]int32
	Heap   *ir.Host

	want     map[string]int32
	wantHeap *ir.Host
}

// NewCase builds a case, running the reference interpreter on copies of
// its inputs.
func NewCase(k *ir.Kernel, args map[string]int32, heap *ir.Host) (*Case, error) {
	wantHeap := heap.Clone()
	want, err := (&ir.Interp{}).Run(k, maps.Clone(args), wantHeap)
	if err != nil {
		return nil, fmt.Errorf("%s: reference: %v", k.Name, err)
	}
	return &Case{Name: k.Name, Source: irtext.Print(k), Kernel: k, Args: args, Heap: heap,
		want: want, wantHeap: wantHeap}, nil
}

// inputs returns fresh copies of the case's inputs; a run writes its heap.
func (c *Case) inputs() (map[string]int32, *ir.Host) {
	return maps.Clone(c.Args), c.Heap.Clone()
}

// Check holds one run's live-outs and post-run heap to the reference. The
// error names the kernel and the first differing live-out or element.
func (c *Case) Check(liveOuts map[string]int32, heap *ir.Host) error {
	if err := ir.Compare(c.want, c.wantHeap, liveOuts, heap); err != nil {
		return fmt.Errorf("%s: %w", c.Name, err)
	}
	return nil
}

// Workload resolves a built-in input by name: "adpcm" decodes the paper's
// input vector of adpcm.NumSamples samples, any other name is that
// workload-library kernel at its default size.
func Workload(name string) (*ir.Kernel, map[string]int32, *ir.Host, error) {
	if name == "adpcm" {
		return adpcmDecode(adpcm.NumSamples)
	}
	w, err := workload.ByName(name)
	if err != nil {
		return nil, nil, nil, err
	}
	return w.Kernel, w.Args(w.DefaultSize), w.Host(w.DefaultSize), nil
}

// adpcmDecode is the ADPCM decoder over the encoding of n generated samples.
func adpcmDecode(n int) (*ir.Kernel, map[string]int32, *ir.Host, error) {
	var enc adpcm.State
	codes, err := adpcm.Encode(adpcm.GenerateSamples(n), &enc)
	if err != nil {
		return nil, nil, nil, err
	}
	return adpcm.Kernel(), adpcm.Args(n, adpcm.State{}), adpcm.NewHost(codes, n), nil
}

// mixed is cgrad's load set: four library workloads and the ADPCM decoder
// on 32 samples.
func mixed() ([]*Case, error) {
	var set []*Case
	for _, name := range []string{"gcd", "fir", "dot", "bitcount"} {
		k, args, heap, err := Workload(name)
		if err != nil {
			return nil, err
		}
		c, err := NewCase(k, args, heap)
		if err != nil {
			return nil, err
		}
		set = append(set, c)
	}
	k, args, heap, err := adpcmDecode(32)
	if err != nil {
		return nil, err
	}
	c, err := NewCase(k, args, heap)
	if err != nil {
		return nil, err
	}
	return append(set, c), nil
}

// Sender runs one case on the system under drill and answers the way
// /v1/run does.
type Sender func(ctx context.Context, c *Case) (*server.RunResponse, error)

// viaHTTP sends each case to a daemon's /v1/run through cl.
func viaHTTP(cl *server.Client) Sender {
	return func(ctx context.Context, c *Case) (*server.RunResponse, error) {
		args, heap := c.inputs()
		resp, err := cl.Run(ctx, c.Name, args, heap.Arrays)
		if err != nil {
			return nil, fmt.Errorf("run %s: %v", c.Name, err)
		}
		return resp, nil
	}
}

// viaSystem runs each case in-process through s.
func viaSystem(s *system.System) Sender {
	return func(ctx context.Context, c *Case) (*server.RunResponse, error) {
		args, heap := c.inputs()
		res, err := s.InvokeCtx(ctx, c.Name, args, heap)
		if err != nil {
			return nil, err
		}
		return &server.RunResponse{LiveOuts: res.LiveOuts, Arrays: heap.Arrays, Cycles: res.Cycles, OnCGRA: res.OnCGRA}, nil
	}
}

// Arm arms plan on s and prints each armed fault.
func Arm(s *system.System, plan fault.Plan, out io.Writer) error {
	if err := s.InjectFaults(plan); err != nil {
		return err
	}
	for _, f := range plan.Faults {
		fmt.Fprintf(out, "armed fault: %s (seed %d)\n", f, plan.Seed)
	}
	return nil
}

// hangSlack is the grace a run gets past Load.Deadline before it counts as
// hung.
const hangSlack = 5 * time.Second

// Load is one drill's load phase: Workers workers run Iters cases each,
// and every reply is checked against its case's reference.
type Load struct {
	Cases   []*Case
	Workers int
	Iters   int
	// Seed seeds worker g's pick stream with Seed+g, so a (seed, workers,
	// iters) triple sends the same request sequence whatever the
	// interleaving. RoundRobin picks case (g+i) mod len instead.
	Seed       int64
	RoundRobin bool
	// Sender returns worker g's transport.
	Sender func(worker int) Sender
	// Deadline, when positive, bounds each run. A run that outlives it by
	// hangSlack, or a load phase still running after Iters such spans plus
	// a minute, is a hang.
	Deadline time.Duration
	// SlowLog, when positive, prints every successful run at least this
	// slow to Log as it happens, with its trace ID.
	SlowLog time.Duration
	Log     io.Writer
}

// Report is what one load phase saw.
type Report struct {
	Runs, Errors, Mismatches int64
	OnCGRA, Degraded         int64
	// Coalesced counts the replies the coalescer served; Flushes is the
	// engine passes they took, each reply adding 1/lanes.
	Coalesced int64
	Flushes   float64
	// FirstErr is the first typed error, FirstMismatch the first reply
	// that disagreed with its reference.
	FirstErr, FirstMismatch error
	// Hangs describes every run that outlived Deadline plus the slack, and
	// a load phase that outlived its watchdog.
	Hangs []string
	Wall  time.Duration
	// lat holds every run's latency, sorted.
	lat []time.Duration
}

// Latency is the p-th percentile run latency (nearest rank) in
// milliseconds.
func (r *Report) Latency(p float64) float64 {
	if len(r.lat) == 0 {
		return 0
	}
	idx := int(p/100*float64(len(r.lat))+0.5) - 1
	idx = max(0, min(idx, len(r.lat)-1))
	return float64(r.lat[idx].Microseconds()) / 1000
}

// First is the first failure: the first typed error, else the first
// mismatch.
func (r *Report) First() error {
	if r.FirstErr != nil {
		return r.FirstErr
	}
	return r.FirstMismatch
}

// PerSec is the run rate over the phase's wall time.
func (r *Report) PerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Runs) / r.Wall.Seconds()
}

// Run runs the load phase and returns what it saw. With a Deadline, a
// phase past its watchdog returns what it saw so far and leaves the hung
// workers behind.
func (l *Load) Run() *Report {
	var mu sync.Mutex
	r := &Report{}
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < l.Workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			send := l.Sender(g)
			rng := rand.New(rand.NewSource(l.Seed + int64(g)))
			for i := 0; i < l.Iters; i++ {
				c := l.Cases[(g+i)%len(l.Cases)]
				if !l.RoundRobin {
					c = l.Cases[rng.Intn(len(l.Cases))]
				}
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if l.Deadline > 0 {
					ctx, cancel = context.WithTimeout(ctx, l.Deadline)
				}
				t0 := time.Now()
				rep, err := send(ctx, c)
				elapsed := time.Since(t0)
				cancel()
				var mismatch error
				if err == nil {
					mismatch = c.Check(rep.LiveOuts, &ir.Host{Arrays: rep.Arrays})
				}
				mu.Lock()
				r.record(l, c, rep, err, mismatch, elapsed)
				mu.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var watchdog <-chan time.Time
	limit := time.Duration(l.Iters)*(l.Deadline+hangSlack) + time.Minute
	if l.Deadline > 0 {
		t := time.NewTimer(limit)
		defer t.Stop()
		watchdog = t.C
	}
	stalled := false
	select {
	case <-done:
	case <-watchdog:
		stalled = true
	}
	// A stalled phase's workers may still record: return a copy.
	mu.Lock()
	defer mu.Unlock()
	snap := *r
	snap.Wall = time.Since(start)
	snap.Hangs = append([]string(nil), r.Hangs...)
	if stalled {
		snap.Hangs = append(snap.Hangs, fmt.Sprintf("load phase hung: not done after %v", limit))
	}
	snap.lat = append([]time.Duration(nil), r.lat...)
	sort.Slice(snap.lat, func(i, j int) bool { return snap.lat[i] < snap.lat[j] })
	return &snap
}

// record counts one run; the caller holds the report's lock.
func (r *Report) record(l *Load, c *Case, rep *server.RunResponse, err, mismatch error, elapsed time.Duration) {
	r.Runs++
	r.lat = append(r.lat, elapsed)
	if l.Deadline > 0 && elapsed > l.Deadline+hangSlack {
		r.Hangs = append(r.Hangs, fmt.Sprintf("hung request: %s run took %v (deadline %v)", c.Name, elapsed, l.Deadline))
	}
	if err != nil {
		r.Errors++
		if r.FirstErr == nil {
			r.FirstErr = err
		}
		return
	}
	if l.SlowLog > 0 && elapsed >= l.SlowLog {
		fmt.Fprintf(l.Log, "cgrad: slow run %-14s %8.3f ms  trace %s\n",
			c.Name, float64(elapsed.Microseconds())/1000, rep.TraceID)
	}
	if rep.OnCGRA {
		r.OnCGRA++
	}
	if rep.Degraded {
		r.Degraded++
	}
	if rep.Batched {
		r.Coalesced++
		r.Flushes += 1 / float64(rep.BatchLanes)
	}
	if mismatch != nil {
		r.Mismatches++
		if r.FirstMismatch == nil {
			r.FirstMismatch = mismatch
		}
	}
}
