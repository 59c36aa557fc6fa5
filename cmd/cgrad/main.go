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
// recovery (see chaos.go):
//
//	cgrad -chaos -seed 1 -clients 4 -chaos-iters 8 -metrics-out chaos-metrics.prom
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cgra/internal/arch"
	"cgra/internal/pipeline"
	"cgra/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		compName    = flag.String("comp", "9 PEs", "composition from the architecture library")
		cacheDir    = flag.String("cache-dir", "", "persistent artifact cache directory (empty = memory-only)")
		cacheMem    = flag.Int("cache-mem", 0, "in-memory cache entries (0 = default)")
		maxInFlight = flag.Int("max-inflight", 0, "max concurrently served requests (0 = default)")
		deadline    = flag.Duration("deadline", 0, "default per-request deadline (0 = 30s)")
		unroll      = flag.Int("unroll", 2, "loop unroll factor")
		batchWindow = flag.Duration("batch-window", 0, "same-artifact /v1/run coalescing: the longest a run queues behind a busy artifact (0 = coalescing off)")
		advertise   = flag.String("advertise", "", "this node's base URL as peers reach it (enables clustering with -peers)")
		peers       = flag.String("peers", "", "comma-separated peer base URLs (the same list can be passed to every node)")
		probeEvery  = flag.Duration("probe-interval", 0, "peer health probe interval (0 = default)")

		loadgen    = flag.Bool("loadgen", false, "run as load generator against -target instead of serving")
		target     = flag.String("target", "http://127.0.0.1:8080", "daemon base URL (loadgen mode)")
		clients    = flag.Int("clients", 4, "concurrent clients (loadgen mode)")
		iters      = flag.Int("iters", 8, "run iterations per client (loadgen mode)")
		expectWarm = flag.Bool("expect-warm", false, "loadgen: fail unless every first compile is served from the cache")
		seed       = flag.Int64("seed", 1, "loadgen/chaos: RNG seed (deterministic request mix and fault schedule)")
		slowlog    = flag.Duration("slowlog", 0, "loadgen: log every run slower than this with its trace ID (0 = off)")
		traceOut   = flag.String("trace-out", "", "loadgen: fetch /debug/traces after the load phase, validate it, and write the Chrome trace JSON here")

		chaosMode  = flag.Bool("chaos", false, "run the chaos soak: serve in-process under fault injection, drive load, assert recovery")
		chaosIters = flag.Int("chaos-iters", 8, "chaos: run iterations per client")
		metricsOut = flag.String("metrics-out", "", "chaos: write the final metrics dump (Prometheus text) to this file")

		churnMode  = flag.Bool("churn", false, "run the cluster churn harness: N in-process clustered nodes, kill one mid-load, restart it cold, assert peer re-warming")
		churnNodes = flag.Int("churn-nodes", 3, "churn: cluster size")
		churnIters = flag.Int("churn-iters", 30, "churn: run iterations per client")
	)
	flag.Parse()

	if *churnMode {
		if err := runChurn(churnConfig{
			CompName: *compName,
			Nodes:    *churnNodes,
			Clients:  *clients,
			Iters:    *churnIters,
			Seed:     *seed,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "cgrad:", err)
			os.Exit(1)
		}
		return
	}

	if *chaosMode {
		if err := runChaos(chaosConfig{
			CompName:   *compName,
			Seed:       *seed,
			Clients:    *clients,
			Iters:      *chaosIters,
			MetricsOut: *metricsOut,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "cgrad:", err)
			os.Exit(1)
		}
		return
	}

	if *loadgen {
		if err := runLoadgen(loadgenConfig{
			Target:     *target,
			Clients:    *clients,
			Iters:      *iters,
			ExpectWarm: *expectWarm,
			Seed:       *seed,
			SlowLog:    *slowlog,
			TraceOut:   *traceOut,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "cgrad:", err)
			os.Exit(1)
		}
		return
	}

	comp, err := arch.ByName(*compName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgrad:", err)
		os.Exit(1)
	}
	opts := pipeline.Defaults()
	opts.UnrollFactor = *unroll
	srv, err := server.New(server.Config{
		Comp:            comp,
		Opts:            opts,
		CacheDir:        *cacheDir,
		CacheMem:        *cacheMem,
		MaxInFlight:     *maxInFlight,
		DefaultDeadline: *deadline,
		BatchWindow:     *batchWindow,
		Advertise:       *advertise,
		Peers:           splitPeers(*peers),
		ProbeInterval:   *probeEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgrad:", err)
		os.Exit(1)
	}

	// Bind synchronously so a bad address fails loudly, before any client
	// is told the daemon is up.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgrad:", err)
		os.Exit(1)
	}
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
			fmt.Fprintln(os.Stderr, "cgrad: shutdown:", err)
			os.Exit(1)
		}
		if err := <-done; err != nil {
			fmt.Fprintln(os.Stderr, "cgrad:", err)
			os.Exit(1)
		}
		fmt.Println("cgrad: drained")
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, "cgrad:", err)
			os.Exit(1)
		}
	}
}

func cacheDirLabel(dir string) string {
	if dir == "" {
		return "memory-only"
	}
	return dir
}

// splitPeers parses the -peers flag: comma-separated base URLs, empty
// entries dropped.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
