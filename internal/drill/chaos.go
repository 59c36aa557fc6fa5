package drill

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"cgra/internal/arch"
	"cgra/internal/chaos"
	"cgra/internal/fault"
	"cgra/internal/ir"
	"cgra/internal/obs"
	"cgra/internal/pipeline"
	"cgra/internal/server"
)

// ChaosConfig drives Chaos.
type ChaosConfig struct {
	Comp    *arch.Composition
	Seed    int64
	Clients int
	// Iters is runs per client (0 = 8).
	Iters int
	// MetricsOut, when set, receives the final metrics dump (Prometheus
	// text).
	MetricsOut string
}

// chaosPlan is the soak's fault schedule. The cadences are staggered so
// fault kinds interleave rather than stack on the same operations, and the
// write-site ones are due by the eighth write, which the dozen or so cache
// writes of even a small soak always reach; the seed fixes the whole
// schedule for replay.
func chaosPlan(seed int64) chaos.Plan {
	return chaos.Plan{
		Seed:            seed,
		ReadErrEvery:    7,
		WriteErrEvery:   7,
		TornWriteEvery:  5,
		BitRotEvery:     8,
		ENOSPCEvery:     6,
		CompileErrEvery: 3,
		CompileLagEvery: 4,
		CompileLag:      20 * time.Millisecond,
	}
}

// runDeadline bounds one chaos request.
const runDeadline = 10 * time.Second

// Chaos is the daemon's disaster drill. The full serving stack — HTTP
// server, admission control, synthesis pool, artifact cache — comes up
// in-process over a seeded chaos injector that breaks the cache filesystem
// (IO errors, torn writes, bit-rot, ENOSPC), the compile path (latency,
// spurious failures) and the simulated hardware (a transient bit flip).
// Retrying clients then drive reference-checked load. It asserts the
// robustness invariants, not the absence of errors:
//
//  1. Zero mismatched results. Every successful response — accelerated,
//     host-fallback or brownout-degraded — must equal the reference
//     interpreter. Failing loudly is allowed; lying is not.
//  2. Zero hung requests. Every request resolves within its deadline plus
//     slack; the whole load phase is bounded by a watchdog.
//  3. Bounded recovery. Once the injector is disarmed, the daemon must
//     return to full health — cache scrubbed clean and un-degraded,
//     breakers closed, brownout exited, every kernel compiled — within the
//     recovery window, with no restart.
//
// Any violation fails it.
func Chaos(cfg ChaosConfig, out io.Writer) error {
	cfg.Clients = max(cfg.Clients, 1)
	if cfg.Iters <= 0 {
		cfg.Iters = 8
	}
	cacheDir, err := os.MkdirTemp("", "cgrad-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)

	// The injector reports into its own registry (the server builds its
	// registry internally); the metrics dump concatenates both.
	injReg := obs.NewRegistry()
	inj := chaos.New(chaosPlan(cfg.Seed), nil, injReg)
	srv, err := server.New(server.Config{
		Comp:               cfg.Comp,
		Opts:               pipeline.Defaults(),
		CacheDir:           cacheDir,
		CacheFS:            inj,
		CacheScrubInterval: 250 * time.Millisecond,
		MaxInFlight:        2 * cfg.Clients,
	})
	if err != nil {
		return err
	}
	sys := srv.System()
	sys.CompileHook = inj.CompileHook()
	// Hardware chaos on top of environment chaos: a transient bit flip the
	// detection/retry machinery must absorb without corrupting results.
	if err := sys.InjectFaults(fault.Plan{Seed: cfg.Seed, Faults: []fault.Fault{{Kind: fault.TransientBit, PE: 1}}}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(out, "cgrad: chaos soak on %s (seed %d, %d clients × %d iters)\n", base, cfg.Seed, cfg.Clients, cfg.Iters)

	set, err := chaosSet()
	if err != nil {
		return err
	}
	var violations []error
	violate := func(format string, args ...any) {
		violations = append(violations, fmt.Errorf(format, args...))
	}
	seed := server.NewClient(base)
	// compileAll compiles every kernel once, logging each failure to log.
	compileAll := func(log io.Writer) (ok bool) {
		ok = true
		for _, k := range set {
			ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
			_, err := seed.Compile(ctx, k.Source, 0)
			cancel()
			if err != nil {
				ok = false
				fmt.Fprintf(log, "cgrad: chaos: seed compile %s: %v (tolerated)\n", k.Name, err)
			}
		}
		return ok
	}

	// Phase A: load under chaos. Register every kernel with one compile
	// attempt each — an injected compile fault may 422, which is fine:
	// registration survives and runs fall back to the host until synthesis
	// lands. Each worker has its own client, so its retry budget and
	// backoff state are its own, like a real fleet.
	compileAll(out)
	r := (&Load{
		Cases: set, Workers: cfg.Clients, Iters: cfg.Iters, RoundRobin: true,
		Sender:   func(int) Sender { return viaHTTP(server.NewClient(base)) },
		Deadline: runDeadline,
	}).Run()
	fmt.Fprintf(out, "cgrad: chaos: %d runs (%d on CGRA, %d degraded, %d typed errors, %d mismatches), %d faults injected\n",
		r.Runs, r.OnCGRA, r.Degraded, r.Errors, r.Mismatches, inj.Injections())
	for _, h := range r.Hangs {
		violate("%s", h)
	}
	if r.Mismatches > 0 {
		violate("%d reference mismatches under chaos; first: %v", r.Mismatches, r.FirstMismatch)
	}

	// Phase B: recovery. Stop all injection; the daemon must heal itself
	// within the window. Compiles drive half-open breaker probes and refill
	// the cache.
	inj.Disarm()
	sys.ClearFaults()
	recoverStart := time.Now()
	const recoverWindow = 30 * time.Second
	recovered := false
	for time.Since(recoverStart) < recoverWindow {
		allCompiled := compileAll(io.Discard)
		sys.Quiesce()
		rep := srv.Cache().ScrubNow()
		if allCompiled && rep.Clean() && !srv.Cache().Degraded() &&
			len(sys.OpenBreakers()) == 0 && !srv.BrownoutActive() {
			recovered = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !recovered {
		violate("daemon did not recover within %v: scrub=%s degraded=%t breakers=%v brownout=%t",
			recoverWindow, srv.Cache().ScrubNow(), srv.Cache().Degraded(), sys.OpenBreakers(), srv.BrownoutActive())
	} else {
		fmt.Fprintf(out, "cgrad: chaos: recovered in %v (cache clean, breakers closed, brownout off)\n",
			time.Since(recoverStart).Round(time.Millisecond))
	}

	// Post-recovery verification: every kernel serves a reference-correct
	// accelerated run from the healed daemon.
	send := viaHTTP(seed)
	for _, k := range set {
		ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
		rep, err := send(ctx, k)
		cancel()
		switch {
		case err != nil:
			violate("post-recovery %v", err)
		case !rep.OnCGRA:
			violate("post-recovery run %s not accelerated", k.Name)
		default:
			if err := k.Check(rep.LiveOuts, &ir.Host{Arrays: rep.Arrays}); err != nil {
				violate("post-recovery mismatch: %v", err)
			}
		}
	}
	// Readiness must agree the daemon is back.
	if rr, err := seed.Ready(context.Background()); err != nil || rr == nil || !rr.Ready {
		violate("daemon not ready after recovery: %+v (%v)", rr, err)
	}

	if cfg.MetricsOut != "" {
		if err := writeChaosMetrics(cfg.MetricsOut, srv, injReg); err != nil {
			return err
		}
		fmt.Fprintln(out, "cgrad: chaos: metrics dump written to", cfg.MetricsOut)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		violate("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		violate("serve: %v", err)
	}

	if len(violations) > 0 {
		return fmt.Errorf("chaos soak failed: %d invariant violations:\n%w", len(violations), errors.Join(violations...))
	}
	fmt.Fprintln(out, "cgrad: chaos soak passed: zero mismatches, zero hangs, full recovery")
	return nil
}

// chaosSet is the mixed set plus renamed variants of its first two
// kernels: each variant has a distinct digest, so it compiles fresh and
// commits its own cache entry — enough write traffic to reach the rarer
// write-site faults (ENOSPC, bit-rot) that a five-kernel set never
// triggers.
func chaosSet() ([]*Case, error) {
	set, err := mixed()
	if err != nil {
		return nil, err
	}
	for _, base := range set[:2] {
		for i := 0; i < 4; i++ {
			v := *base.Kernel
			v.Name = fmt.Sprintf("%s_v%d", base.Name, i)
			c, err := NewCase(&v, base.Args, base.Heap)
			if err != nil {
				return nil, err
			}
			set = append(set, c)
		}
	}
	return set, nil
}

// writeChaosMetrics dumps the server registry and the injector's registry
// into one Prometheus text file (disjoint families, so plain
// concatenation is valid exposition format).
func writeChaosMetrics(path string, srv *server.Server, injReg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := srv.Metrics().WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	if err := injReg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
