package main

// The churn harness (-churn) is the cluster's end-to-end proving ground:
// it boots N in-process cgrad replicas wired into one cluster, warms the
// kernel set through the consistent-hash routing plane, then drives
// reference-checked load while SIGKILLing one node mid-run (Server.Abort:
// connections die mid-flight, nothing drains) and restarting it later
// with a cold cache. The pass criteria are the cluster's contract:
//
//   - zero reference mismatches and zero client-visible request failures
//     through the kill and the restart (failover + local-compile fallback
//     make node death a latency event, not an outage);
//   - the re-ownership metric moves (the survivors re-route the dead
//     node's keys);
//   - the restarted node re-warms every artifact from its peers — cold
//     disk, zero local compiles — proving churn-safe cache warming.
//
// The summary printed at the end carries run p50/p99 and the
// warm-propagation time; the exit status carries the contract.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cgra/internal/arch"
	"cgra/internal/cluster"
	"cgra/internal/obs"
	"cgra/internal/pipeline"
	"cgra/internal/server"
)

type churnConfig struct {
	CompName string
	Nodes    int
	Clients  int
	Iters    int
	Seed     int64
}

// churnNode is one in-process replica plus what it takes to kill and
// resurrect it.
type churnNode struct {
	srv  *server.Server
	url  string
	addr string
}

// bootNode builds and serves one clustered replica on addr (must be
// bindable) with a fresh cache dir.
func bootNode(cfg churnConfig, addr string, urls []string) (*churnNode, error) {
	comp, err := arch.ByName(cfg.CompName)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "cgrad-churn-")
	if err != nil {
		return nil, err
	}
	url := "http://" + addr
	srv, err := server.New(server.Config{
		Comp:          comp,
		Opts:          pipeline.Defaults(),
		CacheDir:      dir,
		Advertise:     url,
		Peers:         urls,
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	// The port may still be in TIME_WAIT teardown after an Abort; retry
	// the bind briefly rather than failing the restart.
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	go srv.Serve(ln)
	c := server.NewClient(url)
	for {
		if err := c.Health(context.Background()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("node %s never became healthy", url)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return &churnNode{srv: srv, url: url, addr: addr}, nil
}

func runChurn(cfg churnConfig) error {
	if cfg.Nodes < 2 {
		cfg.Nodes = 3
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 30
	}
	set, err := loadSet()
	if err != nil {
		return err
	}

	// Reserve every port before any node boots so each replica's peer list
	// is complete from its first probe.
	lns := make([]net.Listener, cfg.Nodes)
	addrs := make([]string, cfg.Nodes)
	urls := make([]string, cfg.Nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
		urls[i] = "http://" + addrs[i]
	}
	// Every server ever booted (including the post-churn replacement) is
	// shut down on exit; shutting down an aborted server is idempotent.
	var bootedMu sync.Mutex
	var booted []*server.Server
	note := func(s *server.Server) {
		bootedMu.Lock()
		booted = append(booted, s)
		bootedMu.Unlock()
	}
	defer func() {
		bootedMu.Lock()
		defer bootedMu.Unlock()
		for _, s := range booted {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = s.Shutdown(ctx)
			cancel()
		}
	}()
	nodes := make([]*churnNode, cfg.Nodes)
	for i := range nodes {
		lns[i].Close() // bootNode rebinds the reserved port
		nd, err := bootNode(cfg, addrs[i], urls)
		if err != nil {
			return err
		}
		nodes[i] = nd
		note(nd.srv)
	}
	fmt.Printf("cgrad: churn: %d nodes up: %v\n", cfg.Nodes, urls)

	// Warm phase: compile each kernel once (cold, routed to its owner),
	// then time how long until EVERY replica serves EVERY kernel warm —
	// that pass pulls each artifact across the fleet via peer fetch.
	ctx := context.Background()
	for i, k := range set {
		c := server.NewClient(urls[i%len(urls)])
		resp, err := c.Compile(ctx, k.source, 0)
		if err != nil {
			return fmt.Errorf("cold compile %s: %v", k.name, err)
		}
		fmt.Printf("cgrad: churn: cold %-14s via %s (%s, %.3f ms)\n", k.name, urls[i%len(urls)], resp.Source, resp.ElapsedMS)
	}
	warmStart := time.Now()
	for _, url := range urls {
		c := server.NewClient(url)
		for _, k := range set {
			resp, err := c.Compile(ctx, k.source, 0)
			if err != nil {
				return fmt.Errorf("warm %s on %s: %v", k.name, url, err)
			}
			if !resp.Cached {
				return fmt.Errorf("warm %s on %s: recompiled (source %q) — peer warming failed", k.name, url, resp.Source)
			}
		}
	}
	fmt.Printf("cgrad: churn: fleet warm in %.1f ms\n", float64(time.Since(warmStart).Microseconds())/1000)

	// Pick the victim: the owner of the first kernel's key, so at least
	// one key is guaranteed to re-own when it dies.
	key0, err := nodes[0].srv.System().CacheKey(set[0].kernel.Name)
	if err != nil {
		return err
	}
	victim := 0
	ownerURL := nodes[0].srv.Cluster().Owner(key0)
	for i, nd := range nodes {
		if nd.url == ownerURL {
			victim = i
		}
	}
	total := int64(cfg.Clients * cfg.Iters)
	killAt := total * 35 / 100
	restartAt := total * 70 / 100

	// Load phase: every client is a multi-endpoint failover client with an
	// unbounded retry budget — churn consumes retries, and exhausting the
	// default budget mid-kill would turn a latency event into an error.
	// Workers run at least Iters runs each and then KEEP running until the
	// controller has finished the whole kill→detect→restart sequence, so
	// the load provably spans every churn event.
	var progress, runErrors, mismatches atomic.Int64
	var ctrlDone atomic.Bool
	latencies := make([][]time.Duration, cfg.Clients)
	errCh := make(chan error, cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < cfg.Clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := server.NewMultiClient(g, urls...)
			c.RetryBudget = -1
			c.MaxAttempts = 10
			c.Backoff = 5 * time.Millisecond
			rng := rand.New(rand.NewSource(cfg.Seed + int64(g)))
			lats := make([]time.Duration, 0, cfg.Iters)
			for i := 0; i < cfg.Iters || !ctrlDone.Load(); i++ {
				k := set[rng.Intn(len(set))]
				t0 := time.Now()
				resp, err := c.Run(ctx, k.name, k.freshArgs(), k.freshArrays())
				lats = append(lats, time.Since(t0))
				progress.Add(1)
				if err != nil {
					runErrors.Add(1)
					select {
					case errCh <- fmt.Errorf("run %s: %v", k.name, err):
					default:
					}
					continue
				}
				if err := k.check(resp); err != nil {
					mismatches.Add(1)
					select {
					case errCh <- err:
					default:
					}
				}
			}
			latencies[g] = lats
		}(g)
	}

	// Controller: kill at ~35% of the nominal runs, restart with a cold
	// cache at ~70%, then let the load tail out against the healed ring.
	ctrlErr := make(chan error, 1)
	go func() {
		defer ctrlDone.Store(true)
		waitProgress := func(n int64) {
			for progress.Load() < n {
				time.Sleep(2 * time.Millisecond)
			}
		}
		waitProgress(killAt)
		fmt.Printf("cgrad: churn: SIGKILL %s at run %d\n", nodes[victim].url, progress.Load())
		nodes[victim].srv.Abort()

		// Wait for a survivor to probe the victim dead: the ring change
		// re-owns the dead node's keys (counted by the OnChange hook).
		probe := nodes[(victim+1)%len(nodes)]
		deadline := time.Now().Add(10 * time.Second)
		for probe.srv.Cluster().State(nodes[victim].url) != cluster.StateDead {
			if time.Now().After(deadline) {
				ctrlErr <- fmt.Errorf("survivor never marked %s dead", nodes[victim].url)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		fmt.Printf("cgrad: churn: %s marked dead by %s at run %d\n", nodes[victim].url, probe.url, progress.Load())

		waitProgress(restartAt)
		fmt.Printf("cgrad: churn: restarting %s (cold cache) at run %d\n", nodes[victim].url, progress.Load())
		nd, err := bootNode(cfg, nodes[victim].addr, urls)
		if err != nil {
			ctrlErr <- err
			return
		}
		nodes[victim] = nd
		note(nd.srv)
		// Hold the load a beat past the revival so requests flow against
		// the healed ring too.
		for probe.srv.Cluster().State(nd.url) != cluster.StateAlive {
			if time.Now().After(deadline) {
				ctrlErr <- fmt.Errorf("survivor never revived %s", nd.url)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		fmt.Printf("cgrad: churn: %s revived at run %d\n", nd.url, progress.Load())
		ctrlErr <- nil
	}()
	wg.Wait()
	wall := time.Since(start)
	if err := <-ctrlErr; err != nil {
		return fmt.Errorf("churn controller: %v", err)
	}

	var allLat []time.Duration
	for _, lats := range latencies {
		allLat = append(allLat, lats...)
	}
	sort.Slice(allLat, func(i, j int) bool { return allLat[i] < allLat[j] })
	runs := progress.Load()
	var runsPerSec float64
	if wall > 0 {
		runsPerSec = float64(runs) / wall.Seconds()
	}

	// Re-warm assertion: the restarted node has a cold disk, its peers are
	// hot. Every kernel must arrive over the peer fetch path — zero local
	// compiles — before it serves its first compile.
	rewarm := server.NewClient(nodes[victim].url)
	rewarmSources := map[string]string{}
	for _, k := range set {
		resp, err := rewarm.Compile(ctx, k.source, 0)
		if err != nil {
			return fmt.Errorf("rewarm %s: %v", k.name, err)
		}
		rewarmSources[k.name] = resp.Source
	}
	rewarmFetchHits := nodes[victim].srv.Metrics().Counter("cgra_peer_fetch_total", obs.L("outcome", "hit")).Value()
	var peerFetchHits, ownerChanges int64
	for _, nd := range nodes {
		r := nd.srv.Metrics()
		peerFetchHits += r.Counter("cgra_peer_fetch_total", obs.L("outcome", "hit")).Value()
		ownerChanges += r.Counter("cgra_route_owner_changes_total").Value()
	}

	fmt.Printf("cgrad: churn: %d runs (%d errors, %d mismatches) in %.1f ms — %.0f runs/s, p50 %.3f ms, p99 %.3f ms\n",
		runs, runErrors.Load(), mismatches.Load(), float64(wall.Microseconds())/1000, runsPerSec,
		percentile(allLat, 50), percentile(allLat, 99))
	fmt.Printf("cgrad: churn: owner changes %d, peer fetch hits %d (restarted node: %d), rewarm sources %v\n",
		ownerChanges, peerFetchHits, rewarmFetchHits, rewarmSources)

	// The contract, enforced.
	switch {
	case mismatches.Load() > 0:
		return fmt.Errorf("%d reference mismatches under churn", mismatches.Load())
	case runErrors.Load() > 0:
		err := <-errCh
		return fmt.Errorf("%d of %d runs failed (first: %v) — node churn must not be client-visible", runErrors.Load(), runs, err)
	case ownerChanges == 0:
		return fmt.Errorf("cgra_route_owner_changes_total is zero — re-ownership never observed")
	case rewarmFetchHits == 0:
		return fmt.Errorf("restarted node shows no peer fetch hits — it did not re-warm from peers")
	}
	for name, src := range rewarmSources {
		if src != "peer" {
			return fmt.Errorf("restarted node served %s from %q instead of re-warming from peers", name, src)
		}
	}
	fmt.Println("cgrad: churn: PASS")
	return nil
}
