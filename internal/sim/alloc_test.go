package sim_test

import (
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/arch"
	"cgra/internal/ir"
	"cgra/internal/pipeline"
	"cgra/internal/sim"
	"cgra/internal/workload"
)

// TestRunAllocs is the plain walk's allocation budget: after warm-up, a
// Machine.Run of each sim_engine kernel on 9 PEs allocates its Result and
// the live-out map and nothing else. The run state, commit ring included,
// comes from the engine's pool, and no cycle allocates.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	type kernel struct {
		name string
		k    *ir.Kernel
		args map[string]int32
		host *ir.Host
	}
	var ks []kernel
	for _, name := range []string{"fir", "matmul", "bsort", "gcd", "bitcount"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, kernel{name, w.Kernel, w.Args(w.DefaultSize), w.Host(w.DefaultSize)})
	}
	samples := adpcm.GenerateSamples(adpcm.NumSamples)
	var enc adpcm.State
	codes, err := adpcm.Encode(samples, &enc)
	if err != nil {
		t.Fatal(err)
	}
	ks = append(ks, kernel{"adpcm", adpcm.Kernel(), adpcm.Args(adpcm.NumSamples, adpcm.State{}), adpcm.NewHost(codes, adpcm.NumSamples)})

	for _, k := range ks {
		m := compileCell(t, k.name, k.k, comp, pipeline.Defaults()).Machine()
		// Runs mutate the heap in place; none of these kernels indexes an
		// array by data it stores, so every run succeeds on it.
		var res *sim.Result
		run := func() {
			var err error
			if res, err = m.Run(k.args, k.host); err != nil {
				t.Fatalf("%s: %v", k.name, err)
			}
		}
		run()
		// The Result and its LiveOuts map: a header, plus a table once the
		// map holds a value.
		budget := 2.0
		if len(res.LiveOuts) > 0 {
			budget = 3
		}
		if allocs := testing.AllocsPerRun(20, run); allocs > budget {
			t.Errorf("%s: a plain run allocates %v times, budget %v", k.name, allocs, budget)
		}
	}
}
