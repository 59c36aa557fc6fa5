package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"cgra/internal/arch"
	"cgra/internal/cache"
	"cgra/internal/irtext"
	"cgra/internal/pipeline"
	"cgra/internal/server"
)

// serveCompileWL is serve_compile: the compile side of serving, where the
// artifact cache, the system layer and the server do most of the work and
// the scheduler the rest. One sequential client compiles every source cold,
// again warm, and once more after the daemon restarted on the same cache
// directory, then runs each kernel once.
type serveCompileWL struct {
	ks     []*kernelCase
	cycles []int64
}

func (w *serveCompileWL) setup(e *env) error {
	lib, err := libraryCases()
	if err != nil {
		return err
	}
	nGen := 40
	if e.tiny {
		lib, nGen = lib[:4], 2
	}
	gen, err := generatedCases(e.seed, nGen)
	if err != nil {
		return err
	}
	w.ks = append(lib, gen...)
	w.cycles = make([]int64, len(w.ks))
	// One unrecorded round: the first round of a process pays for cold
	// code. A request that fails here fails again in every recorded round.
	_, err = w.round(nil, &tally{}, e.tmp)
	return err
}

func (w *serveCompileWL) teardown() {}

// tiers are the three states a compile request can find the daemon in.
var tiers = []string{"cold", "warm", "disk"}

// round is one life of a cache directory; it returns the client latency of
// every compile request, by tier.
func (w *serveCompileWL) round(tr *tracer, ops *tally, tmp string) (map[string][]float64, error) {
	dir, err := os.MkdirTemp(tmp, "cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	lat := map[string][]float64{}
	// wants lists, per tier, where the daemon must say the kernel came from.
	wants := map[string][]string{"cold": {"compile"}, "warm": {"installed", "memory"}, "disk": {"disk"}}
	pass := func(c *conn, tier string, op int) {
		for i, k := range w.ks {
			var resp *server.CompileResponse
			var err error
			d := tr.timed("client.compile."+tier, -1, op+i, func() {
				resp, err = c.Compile(context.Background(), k.source, 0)
			})
			source := ""
			if err == nil {
				source = resp.Source
			}
			ops.add(1)
			ok := false
			for _, want := range wants[tier] {
				ok = ok || source == want
			}
			switch {
			case err != nil:
				ops.fail(k.name, err)
			case !ok:
				ops.fail(k.name, fmt.Errorf("%s compile came from %q", tier, source))
			default:
				lat[tier] = append(lat[tier], ms(d))
			}
		}
	}
	d, err := startDaemon(dir, 0)
	if err != nil {
		return nil, err
	}
	c := dial(d.url)
	pass(c, "cold", 0)
	pass(c, "warm", len(w.ks))
	c.close()
	if err := d.stop(); err != nil {
		return nil, err
	}
	if d, err = startDaemon(dir, 0); err != nil {
		return nil, err
	}
	c = dial(d.url)
	pass(c, "disk", 2*len(w.ks))
	for i, k := range w.ks {
		resp, err := c.run(k)
		ops.add(1)
		if err != nil {
			ops.fail(k.name, err)
			continue
		}
		w.cycles[i] = resp.Cycles
	}
	c.close()
	return lat, d.stop()
}

func (w *serveCompileWL) measure(e *env, budget time.Duration) error {
	lat := map[string][]float64{}
	rounds := 0
	for start := time.Now(); rounds == 0 || time.Since(start) < budget; rounds++ {
		one, err := w.round(nil, &e.ops, e.tmp)
		if err != nil {
			return err
		}
		for _, t := range tiers {
			lat[t] = append(lat[t], one[t]...)
		}
	}
	var all []float64
	total := 0.0
	for _, t := range tiers {
		e.setDetail("compile_"+t+"_ms", summarize(lat[t]))
		all = append(all, lat[t]...)
	}
	for _, l := range all {
		total += l
	}
	if len(all) == 0 {
		return fmt.Errorf("no compile request succeeded")
	}
	e.set("op_p50_ms", median(all))
	e.set("op_p90_ms", percentile(all, 0.90))
	e.set("ops_per_s", float64(len(all))/(total/1000))
	var speedup []float64
	for i, k := range w.ks {
		r := 1.0 // never ran on the array: the host runs it
		if w.cycles[i] > 0 {
			r = float64(k.amidar) / float64(w.cycles[i])
		}
		speedup = append(speedup, r)
	}
	e.set("cgra_speedup", geomean(speedup))
	return nil
}

// traced records one more round with a span around every client request,
// then walks each source through the layers under the server by hand:
// key, compile, artifact, cache put and get, realize.
func (w *serveCompileWL) traced(e *env) error {
	lat, err := w.round(e.tr, &e.ops, e.tmp)
	if err != nil {
		return err
	}
	var all []float64
	for _, t := range tiers {
		all = append(all, lat[t]...)
	}
	e.set("trace.overhead", median(all)/e.m["op_p50_ms"])

	comp, err := arch.ByName("9 PEs")
	if err != nil {
		return err
	}
	opts := pipeline.Defaults()
	layers := []string{"pipeline.key", "pipeline.compile", "pipeline.artifact", "cache.put", "cache.get_mem", "cache.get_disk", "pipeline.realize"}
	perRound := map[string][]float64{}
	var artifactBytes, entryBytes float64
	for r := 0; r < 3; r++ {
		dir, err := os.MkdirTemp(e.tmp, "probe-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		store, err := cache.New(cache.Options{Dir: dir, ScrubInterval: -1})
		if err != nil {
			return err
		}
		sum := map[string]time.Duration{}
		keys := make([]string, len(w.ks))
		encoded := make([][]byte, len(w.ks))
		artifactBytes, entryBytes = 0, 0
		for i, k := range w.ks {
			op := r*len(w.ks) + i
			step := func(name string, f func()) { sum[name] += e.tr.timed(name, -1, op, f) }
			kern, err := irtext.Parse(k.source)
			if err != nil {
				return err
			}
			var c *pipeline.Compiled
			var art *pipeline.Artifact
			var buf bytes.Buffer
			step("pipeline.key", func() { keys[i] = pipeline.Key(kern, comp, opts) })
			step("pipeline.compile", func() { c, err = pipeline.Compile(kern, comp, opts) })
			if err == nil {
				step("pipeline.artifact", func() {
					if art, err = c.Artifact(); err == nil {
						err = pipeline.EncodeArtifact(&buf, art)
					}
				})
			}
			if err == nil {
				step("cache.put", func() { err = store.Put(keys[i], art) })
			}
			if err != nil {
				return fmt.Errorf("%s: %v", k.name, err)
			}
			step("cache.get_mem", func() {
				if _, src, ok := store.Get(keys[i]); !ok || src != cache.SourceMemory {
					err = fmt.Errorf("memory tier missed (%q)", src)
				}
			})
			if err != nil {
				return fmt.Errorf("%s: %v", k.name, err)
			}
			encoded[i] = buf.Bytes()
			artifactBytes += float64(buf.Len())
			if fi, err := os.Stat(store.Path(keys[i])); err == nil {
				entryBytes += float64(fi.Size())
			}
		}
		store.Close()
		second, err := cache.New(cache.Options{Dir: dir, ScrubInterval: -1})
		if err != nil {
			return err
		}
		for i, k := range w.ks {
			op := r*len(w.ks) + i
			var err error
			sum["cache.get_disk"] += e.tr.timed("cache.get_disk", -1, op, func() {
				if _, src, ok := second.Get(keys[i]); !ok || src != cache.SourceDisk {
					err = fmt.Errorf("disk tier missed (%q)", src)
				}
			})
			var c *pipeline.Compiled
			if err == nil {
				sum["pipeline.realize"] += e.tr.timed("pipeline.realize", -1, op, func() {
					var art *pipeline.Artifact
					if art, err = pipeline.DecodeArtifact(bytes.NewReader(encoded[i])); err == nil {
						c, err = art.Realize()
					}
				})
			}
			if err == nil {
				_, err = (&cell{k: k}).execute(c.Machine())
			}
			if err != nil {
				return fmt.Errorf("%s: %v", k.name, err)
			}
		}
		second.Close()
		for _, l := range layers {
			perRound[l] = append(perRound[l], ms(sum[l]))
		}
	}
	for _, l := range layers {
		e.setDetail(l+"_ms", summarize(perRound[l]))
	}
	e.set("pipeline.artifact_bytes", artifactBytes)
	e.set("cache.entry_bytes", entryBytes)
	synth, err := synthesizeMS(e, w.ks)
	if err != nil {
		return err
	}
	e.setDetail("system.synthesize_ms", synth)
	return nil
}
