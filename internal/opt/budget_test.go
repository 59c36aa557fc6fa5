package opt_test

import (
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/opt"
)

// TestApplyObjectBudget holds the optimizer's passes over the ADPCM decoder,
// with the options a compile runs (constant folding, unroll 2, CSE and the
// output check), to a heap-object budget: 1.1× the 290 objects they
// needed when the budget was set (Go 1.24, linux/amd64), most of them the
// rewritten kernel itself. String keys and table copies at every branch
// needed 531.
func TestApplyObjectBudget(t *testing.T) {
	k := adpcm.Kernel()
	o := opt.Options{UnrollFactor: 2, CSE: true, ConstFold: true}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := opt.Apply(k, o); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f objects", allocs)
	const budget = 319
	if allocs > budget {
		t.Errorf("optimizing adpcm allocates %.0f objects, budget %d", allocs, budget)
	}
}
