package drill

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"cgra/internal/arch"
	"cgra/internal/fault"
	"cgra/internal/obs"
	"cgra/internal/pipeline"
	"cgra/internal/server"
	"cgra/internal/system"
)

func comp9(t *testing.T) *arch.Composition {
	t.Helper()
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

func workloadCase(t *testing.T, name string) *Case {
	t.Helper()
	k, args, heap, err := Workload(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCase(k, args, heap)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// promValues reads the sample lines of a Prometheus text file that start
// with prefix, keyed by the series (name plus labels).
func promValues(t *testing.T, path, prefix string) map[string]float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("%s: %q: %v", path, line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLoadgen drives an in-process daemon with the loadgen, without and
// with a batch window: every run reference-checked, the tail attributed
// from the slowest-run reservoir, and a complete server.run trace in the
// Chrome export.
func TestLoadgen(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window time.Duration
	}{{"solo", 0}, {"batched", 2 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := server.New(server.Config{Comp: comp9(t), Opts: pipeline.Defaults(),
				CacheDir: t.TempDir(), BatchWindow: tc.window})
			if err != nil {
				t.Fatal(err)
			}
			ts := newHTTPServer(t, srv)
			traceOut := filepath.Join(t.TempDir(), "traces.json")
			var out bytes.Buffer
			err = Loadgen(LoadgenConfig{Target: ts, Clients: 4, Iters: 8, Seed: 1,
				SlowLog: time.Nanosecond, TraceOut: traceOut}, &out)
			if err != nil {
				t.Fatalf("loadgen: %v\n%s", err, out.String())
			}
			if !regexp.MustCompile(`p99 attribution over [1-9][0-9]* slowest runs`).Match(out.Bytes()) {
				t.Errorf("no p99 attribution in the summary:\n%s", out.String())
			}
			if !strings.Contains(out.String(), "cgrad: 32 runs (") {
				t.Errorf("summary does not report 4 × 8 runs:\n%s", out.String())
			}
			data, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string         `json:"name"`
					Ph   string         `json:"ph"`
					Args map[string]any `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("chrome export: %v", err)
			}
			complete := false
			for _, ev := range doc.TraceEvents {
				done, _ := ev.Args["complete"].(bool)
				complete = complete || ev.Name == "server.run" && ev.Ph == "X" && done
			}
			if !complete {
				t.Errorf("no complete server.run span among %d exported events", len(doc.TraceEvents))
			}
			if tc.window > 0 {
				idle := srv.Metrics().Counter("cgra_run_batch_solo_total", obs.L("reason", "idle")).Value()
				if idle == 0 {
					t.Error("coalescing on, but no run went through the coalescer's idle path")
				}
			}
		})
	}
}

// newHTTPServer serves srv through httptest for the test and returns its
// base URL.
func newHTTPServer(t *testing.T, srv *server.Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return ts.URL
}

// TestChaos runs the chaos drill at CI's size and asserts what its metrics
// dump must show: every environment fault kind fired, the scrubber ran,
// and the hardware fault was injected and detected.
func TestChaos(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "chaos.prom")
	var out bytes.Buffer
	if err := Chaos(ChaosConfig{Comp: comp9(t), Seed: 1, Clients: 4, Iters: 16, MetricsOut: metrics}, &out); err != nil {
		t.Fatalf("chaos: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "chaos soak passed: zero mismatches, zero hangs, full recovery") {
		t.Errorf("no pass line:\n%s", out.String())
	}
	kinds := promValues(t, metrics, "cgra_chaos_injections_total")
	for _, kind := range []string{"read_err", "write_err", "torn_write", "bit_rot", "enospc", "compile_err", "compile_lag"} {
		if kinds[`cgra_chaos_injections_total{kind="`+kind+`"}`] == 0 {
			t.Errorf("chaos kind %s never fired: %v", kind, kinds)
		}
	}
	if promValues(t, metrics, "cgra_cache_scrub_runs_total")["cgra_cache_scrub_runs_total"] == 0 {
		t.Error("the cache scrubber never ran")
	}
	injected := promValues(t, metrics, "cgra_system_faults_injected")["cgra_system_faults_injected"]
	detected := promValues(t, metrics, "cgra_system_faults_detected_total")["cgra_system_faults_detected_total"]
	if !(injected >= detected && detected > 0) {
		t.Errorf("hardware faults: injected %v, detected %v; want injected >= detected > 0", injected, detected)
	}
}

// TestSoak runs the documented soak recipe — fir, 8 streams × 50, a
// permanent fault on PE 4 and a transient one on PE 1, both PEs busy in
// fir's schedule — and asserts the faults were injected, detected and
// recovered from by re-synthesis. fir is synthesized before the load, so
// every stream meets the faults on the CGRA whenever background synthesis
// would have landed.
func TestSoak(t *testing.T) {
	s := system.New(comp9(t), pipeline.Defaults(), 1)
	defer s.Close()
	c := workloadCase(t, "fir")
	if err := s.Register(c.Kernel); err != nil {
		t.Fatal(err)
	}
	if err := s.Synthesize(c.Name); err != nil {
		t.Fatal(err)
	}
	plan := fault.Plan{Seed: 1, Faults: []fault.Fault{{Kind: fault.PermanentPE, PE: 4}, {Kind: fault.TransientBit, PE: 1}}}
	var out bytes.Buffer
	if err := Soak(s, c, plan, 8, 50, &out); err != nil {
		t.Fatalf("soak: %v\n%s", err, out.String())
	}
	st := s.Stats()
	if st.FaultsInjected == 0 || st.FaultsDetected == 0 || st.Resyntheses == 0 {
		t.Errorf("faults: injected %d, detected %d, re-syntheses %d; want each > 0\n%s",
			st.FaultsInjected, st.FaultsDetected, st.Resyntheses, out.String())
	}
	if strings.Contains(out.String(), "latent fault plan") {
		t.Errorf("armed plan reported latent:\n%s", out.String())
	}
}

// TestLoadCatchesCorruption proves the loop bites: a transport that flips
// one element of one returned array fails every run with a mismatch that
// names the kernel, the array and the index.
func TestLoadCatchesCorruption(t *testing.T) {
	c := workloadCase(t, "fir")
	s := system.New(comp9(t), pipeline.Defaults(), 1)
	defer s.Close()
	if err := s.Register(c.Kernel); err != nil {
		t.Fatal(err)
	}
	honest := viaSystem(s)
	flip := func(ctx context.Context, c *Case) (*server.RunResponse, error) {
		rep, err := honest(ctx, c)
		if err == nil {
			rep.Arrays["y"][3] ^= 1
		}
		return rep, err
	}
	r := (&Load{Cases: []*Case{c}, Workers: 2, Iters: 4, Sender: func(int) Sender { return flip }}).Run()
	if r.Errors != 0 || r.Mismatches != 8 {
		t.Fatalf("%d runs: %d errors, %d mismatches; want 8 mismatches", r.Runs, r.Errors, r.Mismatches)
	}
	if msg := r.FirstMismatch.Error(); !strings.Contains(msg, "fir: heap y[3] = ") {
		t.Errorf("mismatch %q does not name kernel fir, array y and index 3", msg)
	}
}
