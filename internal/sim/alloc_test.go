package sim_test

import (
	"context"
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/arch"
	"cgra/internal/ir"
	"cgra/internal/pipeline"
	"cgra/internal/sim"
	"cgra/internal/workload"
)

// TestRunAllocs is the engine's allocation budget on each sim_engine
// kernel on 9 PEs. After warm-up, a plain Machine.Run allocates its Result
// and the live-out map and nothing else. A RunBatch of 16 lanes allocates
// the result slice and each lane's Result and live-out map, whether its
// lanes are identical and stay on the lane walk to the halt, or divergent
// (the sizes BenchmarkRunBatch mixes) and finish on the production walk.
// Every run state, commit ring included, comes from the engine's pool, no
// cycle allocates, and neither does handing a lane to the production walk.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	type kernel struct {
		name   string
		k      *ir.Kernel
		size   int // the default size
		inputs func(size int) (map[string]int32, *ir.Host)
	}
	var ks []kernel
	for _, name := range []string{"fir", "matmul", "bsort", "gcd", "bitcount"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, kernel{name, w.Kernel, w.DefaultSize, func(size int) (map[string]int32, *ir.Host) {
			return w.Args(size), w.Host(size)
		}})
	}
	// Codes for a few samples beyond the default, so no divergent lane's
	// decode runs out of input.
	samples := adpcm.GenerateSamples(adpcm.NumSamples + 8)
	var enc adpcm.State
	codes, err := adpcm.Encode(samples, &enc)
	if err != nil {
		t.Fatal(err)
	}
	ks = append(ks, kernel{"adpcm", adpcm.Kernel(), adpcm.NumSamples, func(size int) (map[string]int32, *ir.Host) {
		return adpcm.Args(size, adpcm.State{}), adpcm.NewHost(codes, size)
	}})

	for _, k := range ks {
		c := compileCell(t, k.name, k.k, comp, pipeline.Defaults())
		m := c.Machine()
		// Runs mutate the heap in place; none of these kernels indexes an
		// array by data it stores, so every run succeeds on it.
		args, host := k.inputs(k.size)
		var res *sim.Result
		run := func() {
			var err error
			if res, err = m.Run(args, host); err != nil {
				t.Fatalf("%s: %v", k.name, err)
			}
		}
		run()
		// The Result and its LiveOuts map: a header, plus a table once the
		// map holds a value.
		perRun := 2.0
		if len(res.LiveOuts) > 0 {
			perRun = 3
		}
		if allocs := testing.AllocsPerRun(20, run); allocs > perRun {
			t.Errorf("%s: a plain run allocates %v times, budget %v", k.name, allocs, perRun)
		}

		eng, err := c.Engine()
		if err != nil {
			t.Fatal(err)
		}
		for _, mix := range []string{"identical", "divergent"} {
			reqs := make([]sim.BatchRequest, 16)
			for l := range reqs {
				size := k.size
				if mix == "divergent" {
					size = max(3, k.size+l%7-2)
				}
				reqs[l].Args, reqs[l].Host = k.inputs(size)
				if mix == "divergent" && k.name == "gcd" {
					reqs[l].Args = map[string]int32{"a": int32(1071 + 13*l), "b": int32(462 + 7*l)}
				}
			}
			var out []sim.BatchResult
			batch := func() {
				out = eng.RunBatch(context.Background(), 0, reqs)
				for l, o := range out {
					if o.Err != nil {
						t.Fatalf("%s/%s: lane %d: %v", k.name, mix, l, o.Err)
					}
				}
			}
			// Two warm-ups: a hand-off draws a second state, and the two
			// swap places between the ready slot and the pool.
			batch()
			batch()
			split := false
			for _, o := range out {
				split = split || o.Res.RunCycles != out[0].Res.RunCycles
			}
			if split != (mix == "divergent") {
				t.Fatalf("%s/%s: lanes ran unequal cycle counts: %v", k.name, mix, split)
			}
			budget := 1 + perRun*float64(len(reqs))
			if allocs := testing.AllocsPerRun(20, batch); allocs > budget {
				t.Errorf("%s/%s: a 16-lane batch allocates %v times, budget %v", k.name, mix, allocs, budget)
			}
		}
	}
}
