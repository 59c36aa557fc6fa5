package modsched_test

import (
	"context"
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/arch"
	"cgra/internal/ir"
	"cgra/internal/kgen"
	"cgra/internal/modsched"
	"cgra/internal/pipeline"
	"cgra/internal/sched"
	"cgra/internal/workload"
)

// This file feeds the solver the problems the compiler really builds:
// internal/sched extracts them from loop bodies, so they are reached by
// compiling kernels with the modulo backend.

func composition(t testing.TB, name string) *arch.Composition {
	t.Helper()
	comp, err := arch.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// compileModulo compiles k for comp with the modulo backend. A refusal is
// fine: the solver has run by then.
func compileModulo(k *ir.Kernel, comp *arch.Composition) {
	o := pipeline.Defaults()
	o.Backend = sched.BackendModulo
	_, _ = pipeline.Compile(k, comp, o)
}

func libraryKernels() []*ir.Kernel {
	ks := []*ir.Kernel{adpcm.Kernel()}
	for _, w := range workload.All() {
		ks = append(ks, w.Kernel)
	}
	return ks
}

// TestTablesMatchReferenceOnCompiledLoops runs the oracle over every loop
// the library kernels hand the solver on five compositions, and over the
// loops of kgen kernels 0–255 (increment in the post clause, so they reach
// the pipeliner) on the three compositions where routing-copy chains occur.
func TestTablesMatchReferenceOnCompiledLoops(t *testing.T) {
	var generated []*ir.Kernel
	for id := 0; id < 256; id++ {
		k := kgen.New(int64(id), kgen.Config{}).Kernel
		k.Body = kgen.IncrementInPost(k.Body)
		generated = append(generated, k)
	}
	for _, set := range []struct {
		kernels []*ir.Kernel
		comps   []string
	}{
		{libraryKernels(), []string{"4 PEs", "9 PEs", "16 PEs", "8 PEs B", "8 PEs F"}},
		{generated, []string{"9 PEs", "16 PEs", "8 PEs B"}},
	} {
		for _, name := range set.comps {
			comp := composition(t, name)
			problems, probes := modsched.Oracle(t, func() {
				for _, k := range set.kernels {
					compileModulo(k, comp)
				}
			})
			t.Logf("%s: %d kernels, %d loops solved, %d probes checked", name, len(set.kernels), len(problems), probes)
			if len(problems) == 0 {
				t.Errorf("%s: no loop reached the solver", name)
			}
		}
	}
}

// loopProblem returns the problem of the one loop kernel name hands the
// solver on comp.
func loopProblem(t testing.TB, name, comp string) *modsched.Problem {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	problems, _ := modsched.Oracle(t, func() { compileModulo(w.Kernel, composition(t, comp)) })
	if len(problems) != 1 {
		t.Fatalf("%s on %s: %d loops reached the solver, want 1", name, comp, len(problems))
	}
	return problems[0]
}

// TestSolveObjectBudget holds Solve to a heap-object budget on the loops of
// fir and matmul: 1.5× the 113, 229, 232 and 341 objects it needed when the
// budget was set — one set of buffers per Solve, the Solution and its
// diagnostics, and the name and adjacency of every routing copy. Before the
// reservation tables, when every conflict probe built two maps and a claim
// list, the same four solves needed 18 762, 117 303, 67 982 and 212 252.
func TestSolveObjectBudget(t *testing.T) {
	for _, c := range []struct {
		kernel, comp string
		budget       float64
	}{
		{"fir", "9 PEs", 170}, {"fir", "8 PEs B", 345}, {"matmul", "9 PEs", 350}, {"matmul", "8 PEs B", 510},
	} {
		p := loopProblem(t, c.kernel, c.comp)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := modsched.Solve(context.Background(), p); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s on %s: %.0f objects", c.kernel, c.comp, allocs)
		if allocs > c.budget {
			t.Errorf("%s on %s: Solve allocates %.0f objects, budget %.0f", c.kernel, c.comp, allocs, c.budget)
		}
	}
}
