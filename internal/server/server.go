// Package server is the HTTP face of the online-synthesis system: a
// compile-and-execute daemon ("cgrad") that accepts kernels in the textual
// IR over a JSON API, synthesizes them onto its CGRA composition through
// the persistent content-addressed artifact cache, and executes them on
// the cycle-accurate simulator.
//
// The daemon is deadline-aware and overload-safe: every request carries an
// optional deadline that becomes a context.Context, admission control
// bounds the in-flight requests with a semaphore and sheds — immediately,
// with 429 + Retry-After — any request whose announced deadline cannot be
// met at the current queue depth (see admission.go). Under sustained
// overload or a failed cache disk, /v1/run overflow is served by the host
// interpreter ("brownout") instead of shed. Shutdown drains in-flight
// requests before quiescing the synthesis pool. All traffic is counted in
// the system's metrics registry and exported on /metrics.
//
// Endpoints:
//
//	POST /v1/compile  {"source": "<ir text>", "deadline_ms": n}
//	POST /v1/run      {"kernel": "name", "args": {...}, "arrays": {...}, "deadline_ms": n}
//	GET  /v1/kernels
//	GET  /metrics     (Prometheus text; ?format=json for JSON)
//	GET  /healthz     (liveness: 200 while the process serves)
//	GET  /readyz      (readiness: 503 while draining or browned out; body
//	                   reports drain state, cache-disk health, open breakers)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cgra/internal/arch"
	"cgra/internal/cache"
	"cgra/internal/chaos"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/obs"
	"cgra/internal/pipeline"
	"cgra/internal/system"
)

// Config assembles a Server.
type Config struct {
	// Comp is the CGRA composition the daemon compiles for.
	Comp *arch.Composition
	// Opts are the pipeline options for every compile.
	Opts pipeline.Options
	// CacheDir is the persistent artifact cache directory ("" = memory-only
	// cache).
	CacheDir string
	// CacheFS is the filesystem the cache persists through (nil = the real
	// OS). Tests and the chaos soak pass a fault-injecting chaos.Injector.
	CacheFS chaos.FS
	// CacheScrubInterval paces the cache's background scrubber (0 = cache
	// default, negative = startup pass only).
	CacheScrubInterval time.Duration
	// MaxInFlight bounds concurrently served requests; excess requests are
	// shed with 429 (0 = 32).
	MaxInFlight int
	// BatchWindow enables same-artifact coalescing on /v1/run: a request
	// that finds its installed artifact at GOMAXPROCS runs in flight queues
	// with the rest of the backlog and runs as a data-parallel lane of one
	// engine pass. The window is the longest it queues; below the limit a
	// request runs at once (0 = batching off).
	BatchWindow time.Duration
}

// Server serves the compile-and-execute API over one system.System.
type Server struct {
	sys   *system.System
	store *cache.Store
	reg   *obs.Registry
	mux   *http.ServeMux
	sem   chan struct{}

	draining atomic.Bool
	httpSrv  *http.Server

	est    *svcEstimator
	bo     *brownout
	flight *obs.FlightRecorder

	inflight       *obs.Gauge
	shed           *obs.Counter
	deadlineShed   *obs.Counter
	brownoutG      *obs.Gauge
	brownoutServes *obs.Counter
	latency        *obs.Histogram
}

// Brownout arms when brownoutThreshold requests are shed inside
// brownoutWindow, and stays armed for brownoutHold after the last trigger.
// A request that carries no deadline runs under defaultDeadline.
const (
	brownoutThreshold = 4
	brownoutWindow    = time.Second
	brownoutHold      = 2 * time.Second
	defaultDeadline   = 30 * time.Second
)

// requestLatencyBuckets spans sub-millisecond cache hits to multi-second
// cold compiles.
var requestLatencyBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}

// New builds a server (and its system + artifact cache) from a config.
func New(cfg Config) (*Server, error) {
	if cfg.Comp == nil {
		return nil, fmt.Errorf("server: no composition")
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 32
	}
	// Threshold 1: a served daemon compiles on request (or first profiled
	// run), it does not wait for a hot-loop profile.
	sys := system.New(cfg.Comp, cfg.Opts, 1)
	sys.CoalesceRuns(cfg.BatchWindow)
	reg := sys.Metrics()
	store, err := cache.New(cache.Options{
		Dir:           cfg.CacheDir,
		Registry:      reg,
		FS:            cfg.CacheFS,
		ScrubInterval: cfg.CacheScrubInterval,
	})
	if err != nil {
		return nil, err
	}
	sys.Cache = store
	reg.Help("cgra_server_requests_total", "API requests by endpoint and status code")
	reg.Help("cgra_server_request_seconds", "API request latency")
	reg.Help("cgra_server_inflight", "API requests currently being served")
	reg.Help("cgra_server_shed_total", "API requests shed by admission control (429)")
	reg.Help("cgra_server_deadline_shed_total", "API requests shed because their announced deadline cannot be met at current load")
	reg.Help("cgra_server_brownout", "1 while brownout (host-interpreter overflow) mode is active")
	reg.Help("cgra_server_brownout_serves_total", "run requests served by the host interpreter during brownout")
	s := &Server{
		sys:            sys,
		store:          store,
		reg:            reg,
		sem:            make(chan struct{}, maxInFlight),
		est:            newSvcEstimator(),
		bo:             &brownout{window: brownoutWindow, threshold: brownoutThreshold, hold: brownoutHold},
		flight:         obs.NewFlightRecorder(),
		inflight:       reg.Gauge("cgra_server_inflight"),
		shed:           reg.Counter("cgra_server_shed_total"),
		deadlineShed:   reg.Counter("cgra_server_deadline_shed_total"),
		brownoutG:      reg.Gauge("cgra_server_brownout"),
		brownoutServes: reg.Counter("cgra_server_brownout_serves_total"),
		latency:        reg.Histogram("cgra_server_request_seconds", requestLatencyBuckets),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", s.instrument("compile", s.handleCompile))
	mux.HandleFunc("/v1/run", s.instrument("run", func(w http.ResponseWriter, r *http.Request) int {
		return s.handleRun(w, r, false)
	}))
	mux.HandleFunc("/v1/kernels", s.instrument("kernels", s.handleKernels))
	mux.Handle("/metrics", reg)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	// The flight recorder's debug surface bypasses admission control: it
	// must answer while the daemon is overloaded — that is its whole point.
	mux.HandleFunc("/debug/traces", s.flight.HandleList)
	mux.HandleFunc("/debug/traces/", s.flight.HandleTrace)
	s.mux = mux
	return s, nil
}

// System exposes the underlying system (tests and embedders).
func (s *Server) System() *system.System { return s.sys }

// Cache exposes the artifact cache.
func (s *Server) Cache() *cache.Store { return s.store }

// Metrics exposes the shared registry.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Flight returns the server's flight recorder (completed and in-flight
// request traces).
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// Handler returns the daemon's HTTP handler (for tests via httptest and for
// embedding behind an existing server).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. It blocks; the returned
// error is nil after a clean Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	s.httpSrv = srv
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the daemon: new requests are rejected (readyz reports
// draining, admission returns 503), in-flight requests run to completion
// within ctx, then the synthesis pool is quiesced and closed, and the
// cache's queued disk commits are made durable before its background
// scrubber is stopped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	s.sys.Quiesce()
	s.sys.Close()
	s.store.Close()
	return err
}

// requestTraceID adopts the caller's X-Trace-Id (so traces of one logical
// request compose across retries and across services) or mints a fresh one.
func requestTraceID(r *http.Request) obs.TraceID {
	if v := r.Header.Get(traceIDHeader); v != "" {
		if id, err := obs.ParseTraceID(v); err == nil && !id.IsZero() {
			return id
		}
	}
	return obs.NewTraceID()
}

// instrument wraps a handler with per-request tracing, admission control
// (deadline-aware shedding, brownout overflow), deadline propagation and
// traffic metrics. Every request gets a trace — adopted from X-Trace-Id or
// freshly minted — whose root span is the request wall time; the trace is
// registered with the flight recorder before the handler runs (so hung
// requests are inspectable in flight) and committed when it completes,
// with the final status as a tail-bucket exemplar on the latency
// histogram.
func (s *Server) instrument(endpoint string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	// requests resolves each status code's cgra_server_requests_total
	// series once: int → *obs.Counter.
	var requests sync.Map
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(requestTraceID(r), endpoint, "server."+endpoint)
		start := tr.Start()
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
		w.Header().Set(traceIDHeader, tr.IDString())
		s.flight.Begin(tr)
		// admission covers everything between arrival and the handler
		// getting the request: trace set-up, shed checks and the semaphore
		// acquisition.
		adm := tr.Root.StartChildAt("admission", start)
		code := http.StatusOK
		admitted := false
		defer func() {
			elapsed := time.Since(start)
			s.latency.ObserveTraced(elapsed.Seconds(), tr.IDString())
			if admitted {
				// Only admitted requests feed the service-time EWMA: sheds
				// complete in microseconds and would talk the estimate down.
				s.est.observe(endpoint, elapsed)
			}
			ctr, ok := requests.Load(code)
			if !ok {
				ctr, _ = requests.LoadOrStore(code, s.reg.Counter("cgra_server_requests_total",
					obs.L("endpoint", endpoint), obs.L("code", strconv.Itoa(code))))
			}
			ctr.(*obs.Counter).Inc()
			s.flight.End(tr, code)
		}()
		if s.draining.Load() {
			adm.Event("shed", "draining")
			adm.Finish()
			code = writeShed(w, r, http.StatusServiceUnavailable, codeDraining,
				"draining", time.Second)
			return
		}
		// Deadline-aware shedding: reject before taking a slot when the
		// announced deadline cannot be met at the current queue depth.
		if dl := clientDeadline(r); dl > 0 {
			if est := s.expectedLatency(endpoint); est > dl {
				s.shed.Inc()
				s.deadlineShed.Inc()
				s.bo.noteShed(time.Now())
				adm.Event("shed", "deadline_unmeetable")
				adm.Finish()
				code = writeShed(w, r, http.StatusTooManyRequests, codeDeadlineUnmeetable,
					fmt.Sprintf("deadline %v unmeetable: expected latency %v at current load", dl, est), est)
				return
			}
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.shed.Inc()
			s.bo.noteShed(time.Now())
			if endpoint == "run" && s.BrownoutActive() {
				// Brownout: serve the overflow on the host interpreter
				// instead of shedding it.
				s.brownoutServes.Inc()
				adm.Event("brownout_serve", "overflow served by host interpreter")
				adm.Finish()
				code = s.handleRun(w, r, true)
				return
			}
			adm.Event("shed", "overloaded")
			adm.Finish()
			code = writeShed(w, r, http.StatusTooManyRequests, codeOverloaded,
				"overloaded", s.retryHint(endpoint))
			return
		}
		admitted = true
		adm.Finish()
		s.inflight.Add(1)
		defer func() { s.inflight.Add(-1); <-s.sem }()
		code = h(w, r)
	}
}

// requestCtx is the one place a request's deadline is derived: the body's
// deadline_ms, else the announced X-Deadline-Ms header admission already
// shed on, else defaultDeadline.
func (s *Server) requestCtx(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := defaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
	} else if dl := clientDeadline(r); dl > 0 {
		d = dl
	}
	return context.WithTimeout(r.Context(), d)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, r, http.StatusMethodNotAllowed, codeBadMethod, "POST required")
	}
	dec := obs.ContextSpan(r.Context()).StartChild("decode")
	var req CompileRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		dec.Finish()
		return writeError(w, r, http.StatusBadRequest, codeBadRequest, "bad request body: "+err.Error())
	}
	k, err := irtext.Parse(req.Source)
	dec.Finish()
	if err != nil {
		return writeError(w, r, http.StatusBadRequest, codeBadRequest, err.Error())
	}
	ctx, cancel := s.requestCtx(r, req.DeadlineMS)
	defer cancel()

	// The same source re-registers as a no-op; the one error Register
	// returns is system.ErrConflict, different source under a taken name.
	if err := s.sys.Register(k); err != nil {
		return writeError(w, r, http.StatusConflict, codeConflict, err.Error())
	}
	start := time.Now()
	info, err := s.sys.SynthesizeCtx(ctx, k.Name)
	if err != nil {
		if system.ErrIsDeadline(err) {
			return writeError(w, r, http.StatusGatewayTimeout, codeDeadline, err.Error())
		}
		return writeError(w, r, http.StatusUnprocessableEntity, codeCompileFailed, err.Error())
	}
	src := info.CacheSource
	if src == "" {
		src = "compile"
	}
	rsp := obs.ContextSpan(r.Context()).StartChild("respond")
	defer rsp.Finish()
	return writeJSON(w, http.StatusOK, CompileResponse{
		Kernel:    info.Kernel,
		Key:       info.Key,
		Contexts:  info.Contexts,
		MaxRF:     info.MaxRF,
		Cached:    src != "compile",
		Source:    src,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		TraceID:   traceIDOf(r),
	})
}

// handleRun serves /v1/run. brownout is admission's verdict: the overflow
// request holds no admission slot and runs on the host interpreter — no
// accelerator, no profiling — with the response marked degraded.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request, brownout bool) int {
	if r.Method != http.MethodPost {
		return writeError(w, r, http.StatusMethodNotAllowed, codeBadMethod, "POST required")
	}
	dec := obs.ContextSpan(r.Context()).StartChild("decode")
	// One pooled codec reads the body and writes the response. The decoded
	// request holds no pointer into it: keys and names are copied out, and
	// the arrays are fresh slices.
	c := getCodec()
	defer c.release()
	var req RunRequest
	if err := c.readRunRequest(r.Body, &req); err != nil {
		dec.Finish()
		return writeError(w, r, http.StatusBadRequest, codeBadRequest, "bad request body: "+err.Error())
	}
	if s.sys.Kernel(req.Kernel) == nil {
		dec.Finish()
		return writeError(w, r, http.StatusNotFound, codeUnknownKernel, fmt.Sprintf("unknown kernel %q", req.Kernel))
	}
	ctx, cancel := s.requestCtx(r, req.DeadlineMS)
	defer cancel()
	dec.Set("arrays", int64(len(req.Arrays)))
	dec.Finish()
	invoke := s.sys.InvokeCtx
	if brownout {
		invoke = s.sys.InvokeHost
	}
	// The decoded arrays are private to this request: they are the heap.
	res, err := invoke(ctx, req.Kernel, req.Args, &ir.Host{Arrays: req.Arrays})
	if err != nil {
		if system.ErrIsDeadline(err) {
			return writeError(w, r, http.StatusGatewayTimeout, codeDeadline, err.Error())
		}
		return writeError(w, r, http.StatusUnprocessableEntity, codeRunFailed, err.Error())
	}
	// The response carries every host array back, encoded into the
	// codec's buffer, which held the request body until now.
	rsp := obs.ContextSpan(r.Context()).StartChild("respond")
	defer rsp.Finish()
	c.buf = append(c.appendRunResponse(c.buf[:0], &RunResponse{
		LiveOuts:   res.LiveOuts,
		Arrays:     req.Arrays,
		Cycles:     res.Cycles,
		OnCGRA:     res.OnCGRA,
		Degraded:   brownout,
		Batched:    res.Lanes > 0,
		BatchLanes: res.Lanes,
		TraceID:    traceIDOf(r),
	}), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(c.buf) // as in writeJSON: the status is sent, a failed write is the client gone
	return http.StatusOK
}

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, r, http.StatusMethodNotAllowed, codeBadMethod, "GET required")
	}
	names := s.sys.Kernels()
	if names == nil {
		names = []string{}
	}
	return writeJSON(w, http.StatusOK, KernelsResponse{Kernels: names})
}

// handleHealth is liveness: 200 as long as the process can serve HTTP at
// all, draining included. Orchestrators must not kill a draining daemon —
// that is what readiness is for.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// handleReady is readiness: whether this daemon should receive new
// traffic, with the reasons spelled out for operators. Draining or
// browned-out daemons report 503 so load balancers route around them;
// degraded cache disk and open breakers are advisory (the daemon still
// serves) but visible.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := ReadyResponse{
		Draining:          s.draining.Load(),
		Brownout:          s.BrownoutActive(),
		CacheDiskDegraded: s.store.Degraded(),
		OpenBreakers:      s.sys.OpenBreakers(),
	}
	resp.Ready = !resp.Draining && !resp.Brownout
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
	return code
}

// traceIDOf returns the request's trace ID as hex ("" outside a traced
// request, e.g. direct handler tests).
func traceIDOf(r *http.Request) string {
	if t := obs.TraceFrom(r.Context()); t != nil {
		return t.IDString()
	}
	return ""
}

// writeError writes the machine-readable error envelope, stamped with the
// request's trace ID so a logged failure joins against its trace.
func writeError(w http.ResponseWriter, r *http.Request, status int, code, msg string) int {
	return writeJSON(w, status, errorResponse{Error: msg, Code: code, TraceID: traceIDOf(r)})
}

// CompileRequest is the body of POST /v1/compile.
type CompileRequest struct {
	// Source is the kernel in textual IR.
	Source string `json:"source"`
	// DeadlineMS bounds the request (compile included), in milliseconds.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// CompileResponse reports one compile.
type CompileResponse struct {
	Kernel   string `json:"kernel"`
	Key      string `json:"key"`
	Contexts int    `json:"contexts"`
	MaxRF    int    `json:"max_rf"`
	// Cached reports the compile was served without running the tool flow.
	Cached bool `json:"cached"`
	// Source is where the compiled kernel came from: "memory" or "disk"
	// (cache tiers), "installed" (already synthesized in this daemon), or
	// "compile" for a fresh run of the tool flow.
	Source    string  `json:"source"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// TraceID identifies this request's trace in /debug/traces/{id}.
	TraceID string `json:"trace_id,omitempty"`
}

// RunRequest is the body of POST /v1/run. Its tags name the wire keys;
// codec.go reads and writes them (MarshalJSON, UnmarshalJSON).
type RunRequest struct {
	Kernel     string             `json:"kernel"`
	Args       map[string]int32   `json:"args,omitempty"`
	Arrays     map[string][]int32 `json:"arrays,omitempty"`
	DeadlineMS int64              `json:"deadline_ms,omitempty"`
}

// RunResponse reports one execution. Its tags name the wire keys;
// codec.go reads and writes them (MarshalJSON, UnmarshalJSON).
type RunResponse struct {
	LiveOuts map[string]int32 `json:"live_outs"`
	// Arrays returns the heap state after the run (DMA write-back included).
	Arrays map[string][]int32 `json:"arrays,omitempty"`
	Cycles int64              `json:"cycles"`
	OnCGRA bool               `json:"on_cgra"`
	// Degraded marks a brownout result: served by the host interpreter
	// under overload instead of being shed. Correct, but no accelerator
	// cycle count.
	Degraded bool `json:"degraded,omitempty"`
	// Batched marks a result the run coalescer served; BatchLanes is how
	// many requests its engine pass carried (1 = it ran alone).
	Batched    bool `json:"batched,omitempty"`
	BatchLanes int  `json:"batch_lanes,omitempty"`
	// TraceID identifies this request's trace in /debug/traces/{id}.
	TraceID string `json:"trace_id,omitempty"`
}

// KernelsResponse lists the registered kernels.
type KernelsResponse struct {
	Kernels []string `json:"kernels"`
}

// ReadyResponse is the body of GET /readyz.
type ReadyResponse struct {
	Ready             bool     `json:"ready"`
	Draining          bool     `json:"draining"`
	Brownout          bool     `json:"brownout"`
	CacheDiskDegraded bool     `json:"cache_disk_degraded"`
	OpenBreakers      []string `json:"open_breakers"`
}

// errorResponse is the JSON error envelope. Code is a stable
// machine-readable token (see the code* constants); Error is the
// human-readable reason; RetryAfterMS is set on shed responses.
type errorResponse struct {
	Error        string `json:"error"`
	Code         string `json:"code,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	// TraceID identifies the failed request's trace in /debug/traces/{id},
	// so an error logged by a client joins against the server-side record.
	TraceID string `json:"trace_id,omitempty"`
}
