package cdfg

import (
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/opt"
)

// TestBuildObjectBudget holds building the CDFG of the ADPCM decoder, as a
// compile optimizes it, to a heap-object budget: 1.1× the 302 objects it
// needed when the budget was set (Go 1.24, linux/amd64), most of them the
// graph's edge lists. With each node's operand list allocated on its own it
// needed 377; with per-block maps of pending writers, copied at every
// predicated branch, 821.
func TestBuildObjectBudget(t *testing.T) {
	k, err := opt.Apply(adpcm.Kernel(), opt.Options{UnrollFactor: 2, CSE: true, ConstFold: true})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Build(k, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f objects", allocs)
	const budget = 332
	if allocs > budget {
		t.Errorf("building adpcm's graph allocates %.0f objects, budget %d", allocs, budget)
	}
}
