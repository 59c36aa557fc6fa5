package pipeline_test

import (
	"math/rand"
	"slices"
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/difftest"
	"cgra/internal/ir"
	"cgra/internal/pipeline"
	"cgra/internal/workload"
)

// FuzzDifferential maps its inputs onto the differential net's tables
// (internal/difftest): kgen kernel id of Configs[cfg] under Arms[arm] on
// Comps[comp], held to the interpreter by the check chain. A compile may
// end in a refusal of its config's array limits.
func FuzzDifferential(f *testing.F) {
	index := func(list []string, name string) uint8 { return uint8(slices.Index(list, name)) }
	for _, c := range difftest.Miscompiled {
		for _, arm := range difftest.MiscompiledArms {
			f.Add(c.ID, index(difftest.Comps, c.Comp), index(difftest.Arms, arm), uint8(0))
		}
	}
	// Generated kernel 35 is the one cell of zero options on 8 PEs F with
	// a one-cycle multiplier the kgen loops once pinned.
	f.Add(int64(35), index(difftest.Comps, "8 PEs F mul 1"), index(difftest.Arms, "zero"), uint8(0))
	// Cells where a jump inside an if's then arm or a loop's body targeted
	// the cycle after it and bypassed the jump over the else arm or back to
	// the header, on 9 PEs: every if branched, and deep kernels.
	for _, id := range []int64{92, 130, 171, 252, 320, 505} {
		f.Add(id, index(difftest.Comps, "9 PEs"), index(difftest.Arms, "branch"), uint8(0))
	}
	for _, id := range []int64{503, 542, 894} {
		f.Add(id, index(difftest.Comps, "9 PEs"), index(difftest.Arms, "zero"), uint8(1))
	}
	// A dead arm's predicate conjunction floated past the last block and
	// out of the schedule, so Verify refused the compile.
	f.Add(int64(987654323584), index(difftest.Comps, "8 PEs F"), index(difftest.Arms, "zero"), uint8(0))
	f.Fuzz(func(t *testing.T, id int64, comp, arm, cfg uint8) {
		name := difftest.Comps[int(comp)%len(difftest.Comps)]
		difftest.CheckCell(t, id, int(cfg)%len(difftest.Configs), difftest.Arms[int(arm)%len(difftest.Arms)],
			name, difftest.Comp(t, name), false)
	})
}

// TestEngineDifferential holds the library kernels under Defaults(), and
// the ones the modulo scheduler pipelines under it, to the check chain.
func TestEngineDifferential(t *testing.T) {
	difftest.CheckLibrary(t, "list2", false)
	difftest.CheckLibrary(t, "modulo", true)
}

// TestModuloBackendDifferential holds the library kernels under the modulo
// scheduler to the check chain, whether their loops pipelined or fell back
// to the list layout.
func TestModuloBackendDifferential(t *testing.T) { difftest.CheckLibrary(t, "modulo", false) }

// laneMix builds a shuffled mixed-size batch for one workload, so lanes
// halt at different cycles and exercise early-exit compaction.
func laneMix(w *workload.Workload) []difftest.Lane {
	base := w.DefaultSize
	if base < 4 {
		base = 4
	}
	sizes := []int{base, base + 3, base - 1, base, base + 1, base - 2, base + 5}
	r := rand.New(rand.NewSource(int64(len(w.Name)) + 42))
	r.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	var lanes []difftest.Lane
	for i, sz := range sizes {
		if sz < 3 {
			sz = 3
		}
		args := w.Args(sz)
		if w.Name == "gcd" {
			// gcd ignores size: vary the operands instead so every lane
			// runs a different iteration count.
			args = map[string]int32{"a": int32(1071 + 13*i), "b": int32(462 + 7*i)}
		}
		lanes = append(lanes, difftest.Lane{Args: args, Host: w.Host(sz)})
	}
	return lanes
}

// TestEngineDifferentialLanes is the lane differential: the check chain
// over a shuffled mixed-input batch, so lanes halt at different cycles and
// per-lane early exit is in play, for every workload kernel, its
// modulo-pipelined variant and adpcm.
func TestEngineDifferentialLanes(t *testing.T) {
	comp := difftest.Comp(t, "9 PEs")
	for _, w := range workload.All() {
		for _, arm := range []string{"list2", "modulo"} {
			c, err := pipeline.Compile(w.Kernel, comp, difftest.ArmOptions(arm))
			if err != nil {
				t.Fatalf("compile %s (%s): %v", w.Name, arm, err)
			}
			name := w.Name
			if arm == "modulo" {
				if c.Schedule.Stats.PipelinedLoops == 0 {
					continue
				}
				name += "-modulo"
			}
			t.Run(name, func(t *testing.T) {
				if err := difftest.Chain(&ir.Interp{}, w.Kernel, c, laneMix(w)...); err != nil {
					t.Error(err)
				}
			})
		}
	}
	t.Run("adpcm", func(t *testing.T) {
		c, err := pipeline.Compile(adpcm.Kernel(), comp, pipeline.Defaults())
		if err != nil {
			t.Fatalf("compile adpcm: %v", err)
		}
		var lanes []difftest.Lane
		for _, n := range []int{8, 24, 16, 24, 12} {
			var st adpcm.State
			codes, err := adpcm.Encode(adpcm.GenerateSamples(n), &st)
			if err != nil {
				t.Fatal(err)
			}
			lanes = append(lanes, difftest.Lane{Args: adpcm.Args(n, adpcm.State{}), Host: adpcm.NewHost(codes, n)})
		}
		if err := difftest.Chain(&ir.Interp{}, adpcm.Kernel(), c, lanes...); err != nil {
			t.Error(err)
		}
	})
}
