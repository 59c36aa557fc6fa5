package ir_test

import (
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/ir"
)

// TestValidateObjectBudget holds validating the ADPCM decoder to a
// heap-object budget: 1.1× the 7 objects it needed when the budget was
// set (Go 1.24, linux/amd64), the name table and the definite-assignment
// flags and log. Copying the assigned set at every branch and loop needed
// 46.
func TestValidateObjectBudget(t *testing.T) {
	k := adpcm.Kernel()
	allocs := testing.AllocsPerRun(10, func() {
		if err := ir.Validate(k); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f objects", allocs)
	const budget = 8
	if allocs > budget {
		t.Errorf("validating adpcm allocates %.0f objects, budget %d", allocs, budget)
	}
}
