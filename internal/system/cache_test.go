package system

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cgra/internal/arch"
	"cgra/internal/cache"
	"cgra/internal/ctxgen"
	"cgra/internal/fault"
	"cgra/internal/irtext"
	"cgra/internal/pipeline"
	"cgra/internal/sim"
	"cgra/internal/workload"
)

// newStore opens an artifact cache (memory-only for dir "") that is closed
// when the test ends.
func newStore(t *testing.T, dir string) *cache.Store {
	t.Helper()
	store, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	return store
}

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
		s := New(comp, pipeline.Defaults(), 1)
		s.Cache = newStore(t, dir)
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

	// A restarted daemon: the first one's store is closed, as its
	// shutdown does, and a fresh system opens the same cache directory.
	s1.Cache.Close()
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
		s := New(comp, pipeline.Defaults(), 1)
		s.Cache = newStore(t, dir)
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
		s.Cache.Close() // the restart before the next run
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
	s := New(comp, pipeline.Defaults(), 1)
	s.Cache = newStore(t, "")
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
	s := New(comp, pipeline.Defaults(), 1)
	s.Cache = newStore(t, "")
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
	const want = "16ba2cd2a4cf673ae17d9a42133d50d20b0bb9fd70302600fc8d392a09f9cab0"
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
		s := New(comp, pipeline.Defaults(), 1)
		s.Cache = newStore(t, "")
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

// TestSharedProgramNeverWritten: the installed kernel, the cache's memory
// front and every kernel realized from it hold one ctxgen.Program, so no
// run may write it. The kernel runs concurrently plain, with counters
// attached, through the system under a transient fault plan that goes
// through recovery, and realized from its memory-front artifact; the
// artifact's encoding and a deep copy of the Program taken beforehand
// must both still match afterwards.
func TestSharedProgramNeverWritten(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	store := newStore(t, "")
	s := New(comp, pipeline.Defaults(), 1)
	s.Cache = store
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	info, err := s.SynthesizeCtx(context.Background(), "dot")
	if err != nil {
		t.Fatal(err)
	}
	installed := s.state.Load().compiled["dot"].c
	art, src, ok := store.Get(info.Key)
	if !ok || src != cache.SourceMemory {
		t.Fatalf("cache lookup: ok=%t source %q, want a memory hit", ok, src)
	}
	if art.Program != installed.Program {
		t.Fatal("the memory front holds a copy of the installed program, not the program itself")
	}
	realized, err := art.Realize()
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := art.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	before := deepCopy(reflect.ValueOf(art.Program)).Interface().(*ctxgen.Program)

	// The fault lands on the PE that issues the most operations.
	busiest, most := 0, -1
	for pe, stream := range installed.Program.PE {
		n := 0
		for _, ctx := range stream {
			if ctx.Op != arch.NOP {
				n++
			}
		}
		if n > most {
			busiest, most = pe, n
		}
	}
	if err := s.InjectFaults(fault.Plan{Seed: 5, Window: 32, Faults: []fault.Fault{{Kind: fault.TransientBit, PE: busiest}}}); err != nil {
		t.Fatal(err)
	}
	args := map[string]int32{"n": 8, "s": 0}
	const want = 1*8 + 2*7 + 3*6 + 4*5 + 5*4 + 6*3 + 7*2 + 8*1
	check := func(walk string, outs map[string]int32, err error) {
		if err != nil {
			t.Errorf("%s: %v", walk, err)
		} else if outs["s"] != want {
			t.Errorf("%s: s = %d, want %d", walk, outs["s"], want)
		}
	}
	liveOuts := func(res *sim.Result, err error) (map[string]int32, error) {
		if err != nil {
			return nil, err
		}
		return res.LiveOuts, nil
	}
	runs := map[string]func() (map[string]int32, error){
		"plain": func() (map[string]int32, error) { return liveOuts(installed.Run(args, dotHost())) },
		"counters": func() (map[string]int32, error) {
			m := installed.Machine()
			sim.AttachCounters(m)
			return liveOuts(m.Run(args, dotHost()))
		},
		"faulted": func() (map[string]int32, error) {
			res, err := s.Invoke("dot", args, dotHost())
			if err != nil {
				return nil, err
			}
			return res.LiveOuts, nil
		},
		"realized": func() (map[string]int32, error) { return liveOuts(realized.Run(args, dotHost())) },
	}
	var wg sync.WaitGroup
	for walk, run := range runs {
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 8 {
					outs, err := run()
					check(walk, outs, err)
				}
			}()
		}
	}
	wg.Wait()
	if st := s.Stats(); st.FaultsDetected == 0 || st.Retries == 0 {
		t.Errorf("the fault plan never went through recovery: %d faults detected, %d retries", st.FaultsDetected, st.Retries)
	}

	after, err := art.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, encoded) {
		t.Error("the shared program encodes differently after the runs")
	}
	if !reflect.DeepEqual(before, art.Program) {
		t.Error("the shared program changed during the runs")
	}
}

// deepCopy copies v and everything it points to.
func deepCopy(v reflect.Value) reflect.Value {
	out := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			out.Set(deepCopy(v.Elem()).Addr())
		}
	case reflect.Struct:
		for i := range v.NumField() {
			out.Field(i).Set(deepCopy(v.Field(i)))
		}
	case reflect.Slice:
		if !v.IsNil() {
			out.Set(reflect.MakeSlice(v.Type(), v.Len(), v.Len()))
			for i := range v.Len() {
				out.Index(i).Set(deepCopy(v.Index(i)))
			}
		}
	case reflect.Map:
		if !v.IsNil() {
			out.Set(reflect.MakeMapWithSize(v.Type(), v.Len()))
			for it := v.MapRange(); it.Next(); {
				out.SetMapIndex(it.Key(), deepCopy(it.Value()))
			}
		}
	default:
		out.Set(v)
	}
	return out
}
