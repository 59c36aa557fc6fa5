package kgen_test

import (
	"testing"

	"cgra/internal/difftest"
)

// The generated kernels' rows of the differential net (internal/difftest):
// each cell compiled onto every composition, or the deep kernels onto three,
// and held by the check chain to the interpreter on the plain walk, the
// hooked walk and a two-lane RunBatch.

// TestFuzzFlowAgainstInterpreter holds kgen ids 0-59 under zero options.
func TestFuzzFlowAgainstInterpreter(t *testing.T) { difftest.Flow.Run(t) }

// TestFuzzFlowOptimized holds ids 100-139 under Defaults().
func TestFuzzFlowOptimized(t *testing.T) { difftest.Optimized.Run(t) }

// TestFuzzProgramsWithCalls holds programs 500-529 through CompileProgram,
// every live-out and the heap.
func TestFuzzProgramsWithCalls(t *testing.T) { difftest.Calls.Run(t) }

// TestFuzzBranchAllIfs holds ids 700-729 with every if branched.
func TestFuzzBranchAllIfs(t *testing.T) { difftest.Branch.Run(t) }

// TestFuzzStress holds deep ids 1000-1399 under zero options and
// Defaults(), accepting the context-memory, RF and C-Box-slot refusals.
func TestFuzzStress(t *testing.T) { difftest.Stress.Run(t) }

// TestDebugSeed35 holds kernel 35 under zero options on 8 PEs F with a
// one-cycle multiplier, the one cell of those options there the old kgen
// loops pinned.
func TestDebugSeed35(t *testing.T) {
	const name = "8 PEs F mul 1"
	difftest.CheckCell(t, 35, 0, "zero", name, difftest.Comp(t, name), true)
}
