package pipeline

import (
	"runtime"
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/arch"
	"cgra/internal/irtext"
	"cgra/internal/workload"
)

// compileHeap is the least heap cost, over three tries, of one cold
// compile of every source on every composition: parse, Compile and
// Engine, as a hot kernel's online synthesis runs them. A concurrent
// allocation can only add to a try, so the minimum is the compile's own.
func compileHeap(t *testing.T, sources []string, comps []*arch.Composition) (bytes, objects uint64) {
	t.Helper()
	bytes, objects = ^uint64(0), ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, src := range sources {
			for _, comp := range comps {
				k, err := irtext.Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				c, err := Compile(k, comp, Defaults())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Engine(); err != nil {
					t.Fatal(err)
				}
			}
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	return bytes, objects
}

// TestCompileByteBudget holds a cold compile of the 12 library kernels on
// "9 PEs" and "8 PEs F" to a heap budget: 1.1× the 2 354 424 bytes the 24
// compiles needed when the byte budget was set and the 17 143 objects they
// needed when the object budget was (Go 1.24, linux/amd64). Cutting the
// CDFG's operand lists from a slab took about 700 objects off 17 837 and
// added 21 kB of unused chunk tails, so the byte budget was kept. With
// locals hashed by name, the validator's, CSE's and the CDFG builder's
// tables copied at every branch and a closure per register interval they
// needed 2 568 024 bytes and 24 807 objects; before narrower context words,
// the streaming lexer and Predecode and Verify without throwaway tables,
// 3 785 248 bytes and 29 667 objects. Garbage is what a cold compile pays
// for most: fewer bytes mean fewer collections.
func TestCompileByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var sources []string
	for _, w := range workload.All() {
		sources = append(sources, irtext.Print(w.Kernel))
	}
	sources = append(sources, adpcm.KernelSource)
	var comps []*arch.Composition
	for _, name := range []string{"9 PEs", "8 PEs F"} {
		comp, err := arch.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, comp)
	}
	bytes, objects := compileHeap(t, sources, comps)
	t.Logf("%d compiles: %d bytes, %d objects", len(sources)*len(comps), bytes, objects)
	const maxBytes, maxObjects = 2_590_000, 18_860
	if bytes > maxBytes {
		t.Errorf("compiling allocates %d bytes, budget %d", bytes, maxBytes)
	}
	if objects > maxObjects {
		t.Errorf("compiling allocates %d objects, budget %d", objects, maxObjects)
	}
}
