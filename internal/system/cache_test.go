package system

import (
	"context"
	"fmt"
	"testing"

	"cgra/internal/arch"
	"cgra/internal/cache"
	"cgra/internal/irtext"
	"cgra/internal/pipeline"
	"cgra/internal/workload"
)

// TestSystemServesFromCache proves the synthesis path consults the artifact
// cache: a second system sharing the cache directory serves the kernel from
// disk without recompiling, and the realized kernel executes correctly.
func TestSystemServesFromCache(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("gcd")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	newSys := func() *System {
		store, err := cache.New(cache.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		s := New(comp, pipeline.Defaults(), 1)
		s.Cache = store
		if err := s.Register(w.Kernel); err != nil {
			t.Fatal(err)
		}
		return s
	}

	s1 := newSys()
	info, err := s1.SynthesizeCtx(context.Background(), "gcd")
	if err != nil {
		t.Fatal(err)
	}
	if info.CacheSource != "" {
		t.Fatalf("first synthesis reported cache source %q, want fresh compile", info.CacheSource)
	}
	if info.Key == "" {
		t.Fatal("no cache key recorded despite attached cache")
	}
	res1, err := s1.Invoke("gcd", w.Args(w.DefaultSize), w.Host(w.DefaultSize))
	if err != nil {
		t.Fatal(err)
	}
	if !res1.OnCGRA {
		t.Fatal("first system did not accelerate")
	}

	// A restarted daemon: fresh system, same cache directory.
	s2 := newSys()
	info2, err := s2.SynthesizeCtx(context.Background(), "gcd")
	if err != nil {
		t.Fatal(err)
	}
	if info2.CacheSource != cache.SourceDisk {
		t.Fatalf("second synthesis came from %q, want %q", info2.CacheSource, cache.SourceDisk)
	}
	if info2.Key != info.Key {
		t.Fatalf("cache key changed across runs: %s vs %s", info2.Key, info.Key)
	}
	if info2.Contexts != info.Contexts || info2.MaxRF != info.MaxRF {
		t.Fatalf("cached mapping footprint (%d ctx, %d rf) != compiled (%d ctx, %d rf)",
			info2.Contexts, info2.MaxRF, info.Contexts, info.MaxRF)
	}
	res2, err := s2.Invoke("gcd", w.Args(w.DefaultSize), w.Host(w.DefaultSize))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.OnCGRA {
		t.Fatal("cache-served kernel did not accelerate")
	}
	for out, want := range res1.LiveOuts {
		if got := res2.LiveOuts[out]; got != want {
			t.Fatalf("live-out %q: cached run %d != compiled run %d", out, got, want)
		}
	}
	// Third synthesis in the same process hits the memory front.
	s3 := New(comp, pipeline.Defaults(), 1)
	s3.Cache = s2.Cache
	if err := s3.Register(w.Kernel); err != nil {
		t.Fatal(err)
	}
	info3, err := s3.SynthesizeCtx(context.Background(), "gcd")
	if err != nil {
		t.Fatal(err)
	}
	if info3.CacheSource != cache.SourceMemory {
		t.Fatalf("third synthesis came from %q, want %q", info3.CacheSource, cache.SourceMemory)
	}
}

// TestSystemCacheCrossCheck runs a cache-served kernel with the reference
// cross-check enabled: the realized artifact must agree with the golden
// interpreter on live-outs and heap effects.
func TestSystemCacheCrossCheck(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("fir")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		store, err := cache.New(cache.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		s := New(comp, pipeline.Defaults(), 1)
		s.Cache = store
		s.crossCheck = true
		if err := s.Register(w.Kernel); err != nil {
			t.Fatal(err)
		}
		info, err := s.SynthesizeCtx(context.Background(), "fir")
		if err != nil {
			t.Fatal(err)
		}
		wantSrc := ""
		if i == 1 {
			wantSrc = cache.SourceDisk
		}
		if info.CacheSource != wantSrc {
			t.Fatalf("run %d: cache source %q, want %q", i, info.CacheSource, wantSrc)
		}
		res, err := s.Invoke("fir", w.Args(w.DefaultSize), w.Host(w.DefaultSize))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !res.OnCGRA {
			t.Fatalf("run %d: not accelerated", i)
		}
	}
}

// TestResynthesizeReportsInstalled: a synthesis that finds the kernel
// already installed says so, instead of repeating the source of the call
// that installed it — the fresh compile ran once.
func TestResynthesizeReportsInstalled(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(comp, pipeline.Defaults(), 1)
	s.Cache = store
	if err := s.Register(workload.FIR().Kernel); err != nil {
		t.Fatal(err)
	}
	first, err := s.SynthesizeCtx(context.Background(), "fir")
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheSource != "" {
		t.Fatalf("first synthesis came from %q, want a fresh compile", first.CacheSource)
	}
	second, err := s.SynthesizeCtx(context.Background(), "fir")
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheSource != "installed" {
		t.Fatalf("second synthesis came from %q, want \"installed\"", second.CacheSource)
	}
	if second.Key != first.Key {
		t.Fatalf("installed entry reports key %s, compile stored %s", second.Key, first.Key)
	}
}

// TestServedKeyGolden pins the key the system serves dot under on "9 PEs"
// with the default options. A changed key turns every cache directory on
// disk cold, so it must change only on purpose (an ArtifactVersion bump).
func TestServedKeyGolden(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(comp, pipeline.Defaults(), 1)
	s.Cache = store
	w, err := workload.ByName("dot")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(w.Kernel); err != nil {
		t.Fatal(err)
	}
	info, err := s.SynthesizeCtx(context.Background(), "dot")
	if err != nil {
		t.Fatal(err)
	}
	const want = "01d0cc2092d5fdb39e951f572374287f8067a4dadf68bf5e735006969fcfd0ac"
	if info.Key != want {
		t.Errorf("served key of dot @ 9 PEs = %s, want %s", info.Key, want)
	}
}

// TestCacheKeyIndependentOfLibrary: what the cache key that compileKernel
// derives costs does not grow with the kernels registered beside the one
// asked about — the system inlines and validates fir's call closure only,
// and digests its target once, not per key.
func TestCacheKeyIndependentOfLibrary(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(registered int) float64 {
		store, err := cache.New(cache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := New(comp, pipeline.Defaults(), 1)
		s.Cache = store
		if err := s.Register(workload.FIR().Kernel); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < registered; i++ {
			k, err := irtext.Parse(fmt.Sprintf("kernel pad%d(inout r) { r = r + %d; }", i, i))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Register(k); err != nil {
				t.Fatal(err)
			}
		}
		st := s.state.Load()
		return testing.AllocsPerRun(20, func() {
			if _, _, key, err := s.cacheKey(st, "fir"); err != nil || key == "" {
				t.Fatalf("cacheKey(fir) = %q, %v", key, err)
			}
		})
	}
	if one, many := allocs(1), allocs(64); one != many {
		t.Errorf("cacheKey(fir) allocates %v times with 1 kernel registered, %v with 64", one, many)
	}
}
