package sched_test

import (
	"testing"

	"cgra/internal/difftest"
)

// The scheduler's rows of the differential net (internal/difftest): where
// speculation, predication, branches and loops meet, each cell held by the
// check chain to the interpreter on the plain walk, the hooked walk and a
// two-lane RunBatch. A context-memory overflow is the one refusal allowed.

// TestMiscompileSweep holds kgen ids 0-511 under zero options, Defaults()
// at unroll 2 and 1, the modulo scheduler and every if branched, one
// parallel subtest per composition. The cells kgen's TestFuzzFlow* tests
// hold run there.
func TestMiscompileSweep(t *testing.T) { difftest.Sweep.Run(t) }

// TestMiscompileCells holds every cell that gave a wrong answer or was
// refused by Verify before the fixes of the copy placement and the
// back-jump lifetime, under the list and modulo arms.
func TestMiscompileCells(t *testing.T) {
	for _, c := range difftest.Miscompiled {
		comp := difftest.Comp(t, c.Comp)
		for _, arm := range difftest.MiscompiledArms {
			difftest.CheckCell(t, c.ID, 0, arm, c.Comp, comp, false)
		}
	}
}

// TestMiscompileMinimized holds each minimized kernel under
// testdata/miscompile-*.k, one per fixed mechanism, to the check chain.
func TestMiscompileMinimized(t *testing.T) { difftest.CheckMinimized(t, "testdata/miscompile-*.k") }
