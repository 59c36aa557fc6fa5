// Command cgrad is the networked compile-and-execute daemon: it serves the
// online-synthesis system over an HTTP/JSON API, compiling submitted
// kernels onto its CGRA composition through a persistent content-addressed
// artifact cache and executing them on the cycle-accurate simulator.
//
// Daemon mode (default):
//
//	cgrad -addr :8080 -comp "9 PEs" -cache-dir /var/cache/cgrad
//
// Load-generator mode (-loadgen) drives a running daemon with N concurrent
// clients over a mixed kernel set, reference-checks every result and prints
// a latency summary:
//
//	cgrad -loadgen -target http://127.0.0.1:8080 -clients 4 -iters 8
//
// Chaos soak mode (-chaos) serves in-process under seeded environment
// fault injection, drives reference-checked load, then asserts bounded
// recovery. Both harnesses live in internal/drill:
//
//	cgrad -chaos -seed 1 -clients 4 -iters 16 -metrics-out chaos-metrics.prom
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cgra/internal/arch"
	"cgra/internal/drill"
	"cgra/internal/pipeline"
	"cgra/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		compName    = flag.String("comp", "9 PEs", "composition from the architecture library")
		cacheDir    = flag.String("cache-dir", "", "persistent artifact cache directory (empty = memory-only)")
		maxInFlight = flag.Int("max-inflight", 0, "max concurrently served requests (0 = default)")
		unroll      = flag.Int("unroll", 2, "loop unroll factor")
		batchWindow = flag.Duration("batch-window", 0, "same-artifact /v1/run coalescing: the longest a run queues behind a busy artifact (0 = coalescing off)")

		loadgen    = flag.Bool("loadgen", false, "run as load generator against -target instead of serving")
		target     = flag.String("target", "http://127.0.0.1:8080", "daemon base URL (loadgen mode)")
		clients    = flag.Int("clients", 4, "concurrent clients (loadgen and chaos)")
		iters      = flag.Int("iters", 0, "run iterations per client (0 = 8)")
		expectWarm = flag.Bool("expect-warm", false, "loadgen: fail unless every first compile is served from the cache")
		seed       = flag.Int64("seed", 1, "loadgen/chaos: RNG seed (deterministic request mix and fault schedule)")
		slowlog    = flag.Duration("slowlog", 0, "loadgen: log every run slower than this with its trace ID (0 = off)")
		traceOut   = flag.String("trace-out", "", "loadgen: fetch /debug/traces after the load phase, validate it, and write the Chrome trace JSON here")

		chaosMode  = flag.Bool("chaos", false, "run the chaos soak: serve in-process under fault injection, drive load, assert recovery")
		metricsOut = flag.String("metrics-out", "", "chaos: write the final metrics dump (Prometheus text) to this file")
	)
	flag.Parse()

	comp, err := arch.ByName(*compName)
	exitOn(err)
	switch {
	case *chaosMode:
		exitOn(drill.Chaos(drill.ChaosConfig{Comp: comp, Seed: *seed, Clients: *clients, Iters: *iters, MetricsOut: *metricsOut}, os.Stdout))
		return
	case *loadgen:
		exitOn(drill.Loadgen(drill.LoadgenConfig{Target: *target, Clients: *clients, Iters: *iters, ExpectWarm: *expectWarm,
			Seed: *seed, SlowLog: *slowlog, TraceOut: *traceOut}, os.Stdout))
		return
	}

	opts := pipeline.Defaults()
	opts.UnrollFactor = *unroll
	srv, err := server.New(server.Config{
		Comp:        comp,
		Opts:        opts,
		CacheDir:    *cacheDir,
		MaxInFlight: *maxInFlight,
		BatchWindow: *batchWindow,
	})
	exitOn(err)
	// Bind synchronously so a bad address fails loudly, before any client
	// is told the daemon is up.
	ln, err := net.Listen("tcp", *addr)
	exitOn(err)
	fmt.Printf("cgrad: serving %q on %s (cache: %s)\n", *compName, ln.Addr(), cacheDirLabel(*cacheDir))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case s := <-sig:
		fmt.Printf("cgrad: %v received, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			exitOn(fmt.Errorf("shutdown: %v", err))
		}
		exitOn(<-done)
		fmt.Println("cgrad: drained")
	case err := <-done:
		exitOn(err)
	}
}

// exitOn ends the process with status 1 when err is set.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgrad:", err)
		os.Exit(1)
	}
}

func cacheDirLabel(dir string) string {
	if dir == "" {
		return "memory-only"
	}
	return dir
}
