package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cgra/internal/arch"
	"cgra/internal/pipeline"
	"cgra/internal/server"
	"cgra/internal/system"
)

// daemon is an in-process cgrad on a loopback listener.
type daemon struct {
	srv  *server.Server
	url  string
	done chan error
}

// startDaemon serves the default daemon configuration (9-PE mesh, paper
// options, disk cache in dir) with the given batching window.
func startDaemon(dir string, window time.Duration) (*daemon, error) {
	mesh9, err := arch.ByName("9 PEs")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Comp: mesh9, Opts: pipeline.Defaults(), CacheDir: dir, BatchWindow: window})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(ln) }()
	return d, nil
}

// stop drains the daemon and waits until its accept loop has returned.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serveErr := <-d.done; err == nil {
		err = serveErr
	}
	return err
}

// conn is one client connection: a single-shot server.Client (a retry
// would hide a refusal) over a transport of its own.
type conn struct {
	*server.Client
	transport *http.Transport
}

func dial(url string) *conn {
	t := &http.Transport{MaxIdleConnsPerHost: 1}
	return &conn{&server.Client{Base: url, HTTP: &http.Client{Transport: t}, MaxAttempts: 1}, t}
}

func (c *conn) close() { c.transport.CloseIdleConnections() }

// clientCount is the number of client connections: load comes from this
// one process, so it never asks for more than the machine's processors.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// run sends one /v1/run and checks the answer: right values, and computed
// on the array rather than by a fallback.
func (c *conn) run(k *kernelCase) (*server.RunResponse, error) {
	resp, err := c.Run(context.Background(), k.orig.Name, k.args, k.host.Arrays)
	if err != nil {
		return nil, err
	}
	if !resp.OnCGRA || resp.Degraded {
		return resp, errors.New("answered by the host, not the array")
	}
	return resp, k.check(resp.LiveOuts, resp.Arrays)
}

// arrival is one request of the open loop: when it is due and what it asks.
type arrival struct {
	due    time.Duration
	kernel int
}

// schedule draws Poisson arrivals at the given total rate for the given
// time; the same seed gives the same schedule.
func schedule(seed int64, rate float64, length time.Duration, kernels int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= length {
			return out
		}
		out = append(out, arrival{at, rng.Intn(kernels)})
	}
}

// openLoop sends every arrival at its due time, or as soon after it as one
// of the workers is free, and reports per arrival how late it was sent and
// how long after its due time it completed. Timing from the due time
// charges a stall to every request that had to wait behind it.
func openLoop(arrivals []arrival, workers int, do func(worker, i int, a arrival)) (lag, latency []time.Duration) {
	lag = make([]time.Duration, len(arrivals))
	latency = make([]time.Duration, len(arrivals))
	queue := make(chan int, len(arrivals)) // one slot per send: the clock never waits for a worker
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				lag[i] = time.Since(start) - arrivals[i].due
				do(w, i, arrivals[i])
				latency[i] = time.Since(start) - arrivals[i].due
			}
		}(w)
	}
	for i, a := range arrivals {
		// Sleep wakes a few hundred microseconds late, as much as a request
		// takes; sleep short of the due time and yield through the rest.
		if wait := a.due - time.Since(start) - time.Millisecond; wait > 0 {
			time.Sleep(wait)
		}
		for time.Since(start) < a.due {
			runtime.Gosched()
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return lag, latency
}

// serveWL is serve_solo / serve_batched: /v1/run against a daemon whose
// kernels were compiled during set-up. Phase A is a closed loop (a host
// stalls on its offloaded kernel), phase B an open loop at a fixed offered
// load.
type serveWL struct {
	batched bool
	ks      []*kernelCase
	cycles  []int64
	dir     string
	d       *daemon
	conns   []*conn

	shed atomic.Int64 // requests refused with 429
}

const openLoopRate = 200 // requests per second, all clients together

func (w *serveWL) setup(e *env) error {
	lib, err := libraryCases()
	if err != nil {
		return err
	}
	if w.ks, err = pick(lib, "gcd", "fir", "dot", "bitcount", "adpcm"); err != nil {
		return err
	}
	if w.dir, err = os.MkdirTemp(e.tmp, "cache-"); err != nil {
		return err
	}
	window := time.Duration(0)
	if w.batched {
		window = 2 * time.Millisecond
	}
	if w.d, err = startDaemon(w.dir, window); err != nil {
		return err
	}
	w.conns = nil
	for i := 0; i < clientCount(); i++ {
		w.conns = append(w.conns, dial(w.d.url))
	}
	w.cycles = make([]int64, len(w.ks))
	for i, k := range w.ks {
		if _, err := w.conns[0].Compile(context.Background(), k.source, 0); err != nil {
			return fmt.Errorf("%s: %v", k.name, err)
		}
		resp, err := w.conns[0].run(k)
		if err != nil {
			return fmt.Errorf("%s: %v", k.name, err)
		}
		w.cycles[i] = resp.Cycles
	}
	return nil
}

func (w *serveWL) teardown() {
	for _, c := range w.conns {
		c.close()
	}
	if w.d != nil {
		_ = w.d.stop() // nothing is in flight; the run's numbers are already taken
		w.d = nil
	}
	os.RemoveAll(w.dir)
}

// request is one checked /v1/run; a refusal (429) is counted on its own.
func (w *serveWL) request(e *env, c *conn, k int) *server.RunResponse {
	resp, err := c.run(w.ks[k])
	e.ops.add(1)
	if err != nil {
		var api *server.APIError
		if errors.As(err, &api) && api.Code == http.StatusTooManyRequests {
			w.shed.Add(1)
		}
		e.ops.fail(w.ks[k].name, err)
		return nil
	}
	if resp.Cycles != w.cycles[k] {
		e.ops.fail(w.ks[k].name, fmt.Errorf("%d cycles, set-up run took %d", resp.Cycles, w.cycles[k]))
		return nil
	}
	return resp
}

// closedLoop keeps every client busy for warm+timed and returns the
// completion rate in each of `slices` equal parts of the timed stretch.
func (w *serveWL) closedLoop(e *env, warm, timed time.Duration, slices int) []float64 {
	counts := make([]int, slices)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for g, c := range w.conns {
		wg.Add(1)
		go func(g int, c *conn) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed + int64(g)))
			for {
				resp := w.request(e, c, rng.Intn(len(w.ks)))
				at := time.Since(start) - warm
				if at >= timed {
					return
				}
				if resp != nil && at >= 0 {
					mu.Lock()
					counts[int(at*time.Duration(slices)/timed)]++
					mu.Unlock()
				}
			}
		}(g, c)
	}
	wg.Wait()
	rates := make([]float64, slices)
	for i, n := range counts {
		rates[i] = float64(n) / (timed.Seconds() / float64(slices))
	}
	return rates
}

func (w *serveWL) measure(e *env, budget time.Duration) error {
	warm, timed, slices := budget/15, budget/3, 7
	if e.tiny {
		slices = 1
	}
	w.shed.Store(0)
	rps := summarize(w.closedLoop(e, warm, timed, slices))
	e.setDetail("run_rps", rps)
	e.set("ops_per_s", rps.Median)

	arrivals := schedule(e.seed, openLoopRate, budget-warm-timed, len(w.ks))
	responses := make([]*server.RunResponse, len(arrivals))
	lag, latency := openLoop(arrivals, len(w.conns), func(worker, i int, a arrival) {
		responses[i] = w.request(e, w.conns[worker], a.kernel)
	})
	var all, lags []float64
	perKernel := make([][]float64, len(w.ks))
	flushes, batched := 0.0, 0
	for i, resp := range responses {
		lags = append(lags, ms(lag[i]))
		if resp == nil {
			continue // failed: counted in ok_ratio, has no latency
		}
		all = append(all, ms(latency[i]))
		perKernel[arrivals[i].kernel] = append(perKernel[arrivals[i].kernel], ms(latency[i]))
		if resp.Batched {
			batched++
			flushes += 1 / float64(resp.BatchLanes)
		} else {
			flushes++
		}
	}
	if len(all) == 0 {
		return errors.New("open loop: no request succeeded")
	}
	e.set("run_p50_ms", median(all))
	e.set("run_p99_ms", percentile(all, 0.99))
	e.set("op_p50_ms", e.m["run_p50_ms"])
	e.set("op_p90_ms", percentile(all, 0.90))
	for i, k := range w.ks {
		e.set("server.run_p50_ms."+k.orig.Name, median(perKernel[i]))
	}
	e.set("server.lanes_per_flush", float64(len(all))/flushes)
	e.set("server.batched_share", float64(batched)/float64(len(all)))
	e.set("server.shed", float64(w.shed.Load()))
	e.set("loadgen.lag_p99_ms", percentile(lags, 0.99))

	var speedup []float64
	for i, k := range w.ks {
		speedup = append(speedup, float64(k.amidar)/float64(w.cycles[i]))
	}
	e.set("cgra_speedup", geomean(speedup))
	return nil
}

// traced issues each request at three depths — the system call, the HTTP
// handler without a socket, the full client — so that the differences are
// the self times of system, server and HTTP.
func (w *serveWL) traced(e *env) error {
	n := 300
	if e.tiny {
		n = 5
	}
	// The same request sequence from the same single client, first without
	// spans: the traced pass's overhead is measured against it, not against
	// the open loop, whose clients share the machine with each other.
	rng := rand.New(rand.NewSource(e.seed))
	var bare []float64
	for op := 0; op < n; op++ {
		k := w.ks[rng.Intn(len(w.ks))]
		t0 := time.Now()
		if _, err := w.conns[0].run(k); err != nil {
			return fmt.Errorf("%s: %v", k.name, err)
		}
		bare = append(bare, us(time.Since(t0)))
	}
	rng = rand.New(rand.NewSource(e.seed))
	sys := w.d.srv.System()
	var client, handler, invoke []float64
	for op := 0; op < n; op++ {
		k := w.ks[rng.Intn(len(w.ks))]
		root := e.tr.start("request", -1, op)
		var err error
		client = append(client, us(e.tr.timed("client", root, op, func() { _, err = w.conns[0].run(k) })))
		if err != nil {
			return fmt.Errorf("%s: %v", k.name, err)
		}
		body, _ := json.Marshal(server.RunRequest{Kernel: k.orig.Name, Args: k.args, Arrays: k.host.Arrays})
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler = append(handler, us(e.tr.timed("server.handler", root, op, func() { w.d.srv.Handler().ServeHTTP(rec, req) })))
		var resp server.RunResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
			return fmt.Errorf("%s: handler answered %d: %v", k.name, rec.Code, err)
		}
		if err := k.check(resp.LiveOuts, resp.Arrays); err != nil {
			return fmt.Errorf("%s: handler: %v", k.name, err)
		}
		heap := k.host.Clone()
		var res *system.Result
		invoke = append(invoke, us(e.tr.timed("system.invoke", root, op, func() {
			res, err = sys.InvokeCtx(context.Background(), k.orig.Name, k.args, heap)
		})))
		if err == nil {
			err = k.check(res.LiveOuts, heap.Arrays)
		}
		if err != nil {
			return fmt.Errorf("%s: system: %v", k.name, err)
		}
		e.tr.end(root)
	}
	e.set("system.invoke_us", median(invoke))
	e.set("server.handler_run_us", median(handler))
	e.set("server.http_us", median(client)-median(handler))
	e.set("trace.overhead", median(client)/median(bare))

	var batch []float64
	for i := 0; i < n/5+1; i++ {
		k := w.ks[rng.Intn(len(w.ks))]
		reqs := make([]system.BatchRequest, 16)
		for j := range reqs {
			reqs[j] = system.BatchRequest{Args: k.args, Host: k.host.Clone()}
		}
		var outs []system.BatchOutcome
		d := e.tr.timed("system.invoke_batch16", -1, n+i, func() { outs = sys.InvokeBatch(context.Background(), k.orig.Name, reqs) })
		for j, o := range outs {
			if o.Err != nil {
				return fmt.Errorf("%s: batch lane: %v", k.name, o.Err)
			}
			if err := k.check(o.Res.LiveOuts, reqs[j].Host.Arrays); err != nil {
				return fmt.Errorf("%s: batch lane: %v", k.name, err)
			}
		}
		batch = append(batch, us(d)/16)
	}
	e.set("system.invoke_batch16_us", median(batch))
	synth, err := synthesizeMS(e, w.ks)
	if err != nil {
		return err
	}
	e.setDetail("system.synthesize_ms", synth)
	return nil
}

// synthesizeMS times a fresh system compiling the kernels with no cache
// behind it: system.New, Register and SynthesizeCtx, summed over the
// kernels, three times.
func synthesizeMS(e *env, ks []*kernelCase) (summary, error) {
	mesh9, err := arch.ByName("9 PEs")
	if err != nil {
		return summary{}, err
	}
	var totals []float64
	for r := 0; r < 3; r++ {
		var failed error
		d := e.tr.timed("system.synthesize", -1, r, func() {
			sys := system.New(mesh9, pipeline.Defaults(), 1)
			defer sys.Close()
			for _, k := range ks {
				if err := sys.Register(k.orig); err != nil {
					failed = err
					return
				}
				if _, err := sys.SynthesizeCtx(context.Background(), k.orig.Name); err != nil {
					failed = err
					return
				}
			}
		})
		if failed != nil {
			return summary{}, failed
		}
		totals = append(totals, ms(d))
	}
	return summarize(totals), nil
}
