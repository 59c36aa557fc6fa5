package sched

import (
	"context"
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/arch"
	"cgra/internal/cdfg"
	"cgra/internal/route"
)

func adpcmGraph(t *testing.T) *cdfg.Graph {
	t.Helper()
	g, err := cdfg.Build(adpcm.Kernel(), cdfg.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCandidatePEsAllocatesNothing: ordering the PEs for a node is the
// innermost step of the placement loop (every candidate, every time step);
// once the scratch buffers have grown it must not touch the heap.
func TestCandidatePEsAllocatesNothing(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	g := adpcmGraph(t)
	s := newScheduler(context.Background(), g, comp, route.New(comp), Options{MaxCycles: 100000}, false)
	if _, err := s.region(g.Root, 0); err != nil {
		t.Fatal(err)
	}
	// The finished run is the richest state there is: every value placed,
	// every copy and constant registered.
	nodes := g.AllNodes()
	allocs := testing.AllocsPerRun(10, func() {
		for _, n := range nodes {
			if len(s.candidatePEs(n, n.Op)) == 0 {
				t.Fatalf("no PE for %s", n)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("ordering the PEs of %d nodes allocates %.0f objects, want 0", len(nodes), allocs)
	}
}

// TestRunObjectBudget holds a whole scheduling run of the ADPCM decoder to
// a heap-object budget: 1.1× the 435 and 441 objects the runs needed when
// the budget was set (Go 1.24, linux/amd64), most of them the schedule
// itself (ops, values, slots and their use lists). Before the allocator
// stopped making a closure per value and slot they needed 501 and 506; the
// map-based scheduler needed 11 939 and 12 926.
func TestRunObjectBudget(t *testing.T) {
	g := adpcmGraph(t)
	for name, budget := range map[string]float64{"9 PEs": 479, "8 PEs F": 485} {
		comp, err := arch.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Run(g, comp, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f objects", name, allocs)
		if allocs > budget {
			t.Errorf("%s: scheduling adpcm allocates %.0f objects, budget %.0f", name, allocs, budget)
		}
	}
}
