package drill

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"time"

	"cgra/internal/arch"
	"cgra/internal/cluster"
	"cgra/internal/obs"
	"cgra/internal/pipeline"
	"cgra/internal/server"
)

// ChurnConfig drives Churn.
type ChurnConfig struct {
	Comp *arch.Composition
	// Nodes is the cluster size (below 2 = 3).
	Nodes   int
	Clients int
	// Iters is the least number of runs per client (0 = 30).
	Iters int
	Seed  int64
}

// churnNode is one in-process replica plus what it takes to kill and
// resurrect it.
type churnNode struct {
	srv  *server.Server
	url  string
	addr string
}

// bootNode builds and serves one clustered replica on addr (which must be
// bindable) with a fresh cache dir under root.
func bootNode(comp *arch.Composition, root, addr string, urls []string) (*churnNode, error) {
	dir, err := os.MkdirTemp(root, "node-")
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
	for c.Health(context.Background()) != nil {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("node %s never became healthy", url)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return &churnNode{srv: srv, url: url, addr: addr}, nil
}

// Churn is the cluster's end-to-end proving ground: it boots Nodes
// in-process replicas wired into one cluster, warms the mixed set through
// the consistent-hash routing plane, then drives reference-checked load
// while killing one node mid-run (Server.Abort: connections die
// mid-flight, nothing drains) and restarting it later with a cold cache.
// It fails unless the cluster's contract holds:
//
//   - zero reference mismatches and zero client-visible request failures
//     through the kill and the restart (failover + local-compile fallback
//     make node death a latency event, not an outage);
//   - the re-ownership metric moves (the survivors re-route the dead
//     node's keys);
//   - the restarted node re-warms every artifact from its peers — cold
//     disk, zero local compiles — proving churn-safe cache warming.
//
// The summary carries run p50/p99 and the warm-propagation time.
func Churn(cfg ChurnConfig, out io.Writer) error {
	if cfg.Nodes < 2 {
		cfg.Nodes = 3
	}
	cfg.Clients = max(cfg.Clients, 1)
	if cfg.Iters <= 0 {
		cfg.Iters = 30
	}
	set, err := mixed()
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
	root, err := os.MkdirTemp("", "cgrad-churn-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	boot := func(addr string) (*churnNode, error) { return bootNode(cfg.Comp, root, addr, urls) }
	// Every live node is shut down on exit; the victim the controller
	// replaced was aborted, and shutting down an aborted server is
	// idempotent.
	nodes := make([]*churnNode, cfg.Nodes)
	defer func() {
		for _, nd := range nodes {
			if nd != nil {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				_ = nd.srv.Shutdown(ctx)
				cancel()
			}
		}
	}()
	for i := range nodes {
		lns[i].Close() // boot rebinds the reserved port
		if nodes[i], err = boot(addrs[i]); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "cgrad: churn: %d nodes up: %v\n", cfg.Nodes, urls)

	// Warm phase: compile each kernel once (cold, routed to its owner),
	// then time how long until EVERY replica serves EVERY kernel warm —
	// that pass pulls each artifact across the fleet via peer fetch.
	ctx := context.Background()
	for i, k := range set {
		resp, err := server.NewClient(urls[i%len(urls)]).Compile(ctx, k.Source, 0)
		if err != nil {
			return fmt.Errorf("cold compile %s: %v", k.Name, err)
		}
		fmt.Fprintf(out, "cgrad: churn: cold %-14s via %s (%s, %.3f ms)\n", k.Name, urls[i%len(urls)], resp.Source, resp.ElapsedMS)
	}
	warmStart := time.Now()
	for _, url := range urls {
		c := server.NewClient(url)
		for _, k := range set {
			resp, err := c.Compile(ctx, k.Source, 0)
			if err != nil {
				return fmt.Errorf("warm %s on %s: %v", k.Name, url, err)
			}
			if !resp.Cached {
				return fmt.Errorf("warm %s on %s: recompiled (source %q) — peer warming failed", k.Name, url, resp.Source)
			}
		}
	}
	fmt.Fprintf(out, "cgrad: churn: fleet warm in %.1f ms\n", float64(time.Since(warmStart).Microseconds())/1000)

	// Pick the victim: the owner of the first kernel's key, so at least
	// one key is guaranteed to re-own when it dies.
	key0, err := nodes[0].srv.System().CacheKey(set[0].Name)
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
	// Workers run at least Iters runs each and then keep running until the
	// controller has finished the whole kill→detect→restart sequence, so
	// the load provably spans every churn event.
	var ctrlDone atomic.Bool
	load := &Load{
		Cases: set, Workers: cfg.Clients, Iters: cfg.Iters, Seed: cfg.Seed,
		Sender: func(g int) Sender {
			c := server.NewMultiClient(g, urls...)
			c.RetryBudget = -1
			c.MaxAttempts = 10
			c.Backoff = 5 * time.Millisecond
			return viaHTTP(c)
		},
		Until: ctrlDone.Load,
	}
	// Controller: kill at ~35% of the nominal runs, restart with a cold
	// cache at ~70%, then let the load tail out against the healed ring.
	ctrlErr := make(chan error, 1)
	go func() {
		defer ctrlDone.Store(true)
		ctrlErr <- killAndRevive(nodes, victim, boot, load, killAt, restartAt, out)
	}()
	r := load.Run()
	if err := <-ctrlErr; err != nil {
		return fmt.Errorf("churn controller: %v", err)
	}

	// Re-warm assertion: the restarted node has a cold disk, its peers are
	// hot. Every kernel must arrive over the peer fetch path — zero local
	// compiles — before it serves its first compile.
	rewarm := server.NewClient(nodes[victim].url)
	rewarmSources := map[string]string{}
	for _, k := range set {
		resp, err := rewarm.Compile(ctx, k.Source, 0)
		if err != nil {
			return fmt.Errorf("rewarm %s: %v", k.Name, err)
		}
		rewarmSources[k.Name] = resp.Source
	}
	rewarmFetchHits := nodes[victim].srv.Metrics().Counter("cgra_peer_fetch_total", obs.L("outcome", "hit")).Value()
	var peerFetchHits, ownerChanges int64
	for _, nd := range nodes {
		m := nd.srv.Metrics()
		peerFetchHits += m.Counter("cgra_peer_fetch_total", obs.L("outcome", "hit")).Value()
		ownerChanges += m.Counter("cgra_route_owner_changes_total").Value()
	}

	fmt.Fprintf(out, "cgrad: churn: %d runs (%d errors, %d mismatches) in %.1f ms — %.0f runs/s, p50 %.3f ms, p99 %.3f ms\n",
		r.Runs, r.Errors, r.Mismatches, float64(r.Wall.Microseconds())/1000, r.PerSec(),
		r.Latency(50), r.Latency(99))
	fmt.Fprintf(out, "cgrad: churn: owner changes %d, peer fetch hits %d (restarted node: %d), rewarm sources %v\n",
		ownerChanges, peerFetchHits, rewarmFetchHits, rewarmSources)

	// The contract, enforced.
	switch {
	case r.Mismatches > 0:
		return fmt.Errorf("%d reference mismatches under churn; first: %v", r.Mismatches, r.FirstMismatch)
	case r.Errors > 0:
		return fmt.Errorf("%d of %d runs failed (first: %v) — node churn must not be client-visible", r.Errors, r.Runs, r.FirstErr)
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
	fmt.Fprintln(out, "cgrad: churn: PASS")
	return nil
}

// killAndRevive is the churn controller: it kills the victim once the load
// has made killAt runs, waits for a survivor to probe it dead, restarts it
// with a cold cache at restartAt runs and waits for the survivor to see it
// alive again.
func killAndRevive(nodes []*churnNode, victim int, boot func(string) (*churnNode, error),
	load *Load, killAt, restartAt int64, out io.Writer) error {
	waitRuns := func(n int64) {
		for load.Runs() < n {
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitState := func(probe *churnNode, url string, want cluster.State, deadline time.Time) error {
		for probe.srv.Cluster().State(url) != want {
			if time.Now().After(deadline) {
				return fmt.Errorf("survivor never saw %s %s", url, want)
			}
			time.Sleep(10 * time.Millisecond)
		}
		return nil
	}
	waitRuns(killAt)
	fmt.Fprintf(out, "cgrad: churn: SIGKILL %s at run %d\n", nodes[victim].url, load.Runs())
	nodes[victim].srv.Abort()

	// A survivor probing the victim dead changes the ring, which re-owns
	// the dead node's keys (counted by the OnChange hook).
	probe := nodes[(victim+1)%len(nodes)]
	deadline := time.Now().Add(10 * time.Second)
	if err := waitState(probe, nodes[victim].url, cluster.StateDead, deadline); err != nil {
		return err
	}
	fmt.Fprintf(out, "cgrad: churn: %s marked dead by %s at run %d\n", nodes[victim].url, probe.url, load.Runs())

	waitRuns(restartAt)
	fmt.Fprintf(out, "cgrad: churn: restarting %s (cold cache) at run %d\n", nodes[victim].url, load.Runs())
	nd, err := boot(nodes[victim].addr)
	if err != nil {
		return err
	}
	nodes[victim] = nd
	// Hold the load a beat past the revival so requests flow against the
	// healed ring too.
	if err := waitState(probe, nd.url, cluster.StateAlive, deadline); err != nil {
		return err
	}
	fmt.Fprintf(out, "cgrad: churn: %s revived at run %d\n", nd.url, load.Runs())
	return nil
}
