package alloc

import (
	"testing"
	"testing/quick"

	"cgra/internal/arch"
	"cgra/internal/cdfg"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/sched"
)

func scheduleKernel(t *testing.T, src string, comp *arch.Composition) *sched.Schedule {
	t.Helper()
	k := mustParse(t, src)
	g, err := cdfg.Build(k, cdfg.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run(g, comp, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mesh(t *testing.T, n int) *arch.Composition {
	t.Helper()
	c, err := arch.HomogeneousMesh(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAllocateAssignsEverything(t *testing.T) {
	s := scheduleKernel(t, `
kernel k(array a, in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) {
		v = a[i];
		if (v > 0) { s = s + v; }
		i = i + 1;
	}
}`, mesh(t, 4))
	res, err := Allocate(s)
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	for _, v := range s.Values {
		if v.Addr < 0 {
			t.Errorf("value r%d unassigned", v.ID)
		}
		if v.Addr >= s.Comp.PEs[v.PE].RegfileSize {
			t.Errorf("value r%d address %d exceeds RF size", v.ID, v.Addr)
		}
	}
	for _, sl := range s.Slots {
		if len(sl.Writes) > 0 && sl.Phys < 0 {
			t.Errorf("slot s%d unassigned", sl.ID)
		}
	}
	if res.MaxRF() == 0 {
		t.Error("MaxRF = 0")
	}
	if res.CBoxUsage == 0 {
		t.Error("no C-Box slots used despite conditions")
	}
}

// TestAllocateNoOverlap verifies the left-edge invariant: two values sharing
// a register on the same PE must have disjoint (extended) lifetimes.
func TestAllocateNoOverlap(t *testing.T) {
	s := scheduleKernel(t, `
kernel k(array a, in n, inout s, inout m) {
	s = 0;
	m = 0;
	i = 0;
	while (i < n) {
		v = a[i];
		w = v * 3 + 1;
		x = w - v;
		if (x > m) { m = x; }
		s = s + w;
		i = i + 1;
	}
}`, mesh(t, 6))
	if _, err := Allocate(s); err != nil {
		t.Fatal(err)
	}
	lifetime := func(v *sched.Value) (int, int) {
		if v.Pinned {
			return -1, s.Length
		}
		return v.Def, extendUses(v.Def, v.Uses, s.LoopRanges)
	}
	byReg := map[[2]int][]*sched.Value{}
	for _, v := range s.Values {
		key := [2]int{v.PE, v.Addr}
		byReg[key] = append(byReg[key], v)
	}
	for key, vals := range byReg {
		for i := 0; i < len(vals); i++ {
			for j := i + 1; j < len(vals); j++ {
				s1, e1 := lifetime(vals[i])
				s2, e2 := lifetime(vals[j])
				// Overlap if neither ends at/before the other's start.
				if !(e1 <= s2 || e2 <= s1) {
					t.Errorf("PE %d reg %d: values r%d [%d,%d] and r%d [%d,%d] overlap",
						key[0], key[1], vals[i].ID, s1, e1, vals[j].ID, s2, e2)
				}
			}
		}
	}
}

func TestAllocateRejectsTinyRF(t *testing.T) {
	comp, err := arch.Mesh(arch.MeshOptions{Rows: 2, Cols: 2, RFSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	k := mustParse(t, `
kernel k(in a, in b, in c, in d, inout r) {
	r = (a + b) * (c + d) + (a - b) * (c - d) + a * d;
}`)
	g, err := cdfg.Build(k, cdfg.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run(g, comp, sched.Options{})
	if err != nil {
		t.Fatal(err) // scheduling itself does not track RF pressure
	}
	if _, err := Allocate(s); err == nil {
		t.Error("allocation into a 2-entry RF should fail")
	}
}

func TestExtendUses(t *testing.T) {
	loops := [][2]int{{10, 20}, {5, 30}} // inner, outer
	cases := []struct {
		def  int
		uses []int
		want int
	}{
		{0, []int{3}, 3},          // no loop involvement
		{0, []int{12}, 31},        // reaches into inner -> past inner's back jump, then outer's
		{11, []int{12}, 12},       // defined and used inside: no extension
		{6, []int{12}, 21},        // defined in outer, used in inner: past inner's back jump
		{0, nil, 0},               // dead value
		{25, []int{26, 28}, 28},   // inside outer only, def also inside
		{0, []int{3, 12, 25}, 31}, // multiple uses, worst case wins
		{0, []int{30}, 31},        // last read in outer's back-jump cycle
	}
	for _, c := range cases {
		if got := extendUses(c.def, c.uses, loops); got != c.want {
			t.Errorf("extendUses(%d, %v) = %d, want %d", c.def, c.uses, got, c.want)
		}
	}
	// Of two adjacent loops, a value last read in the first stays live
	// one cycle past its back jump, not through the second.
	adjacent := [][2]int{{10, 20}, {21, 30}}
	for _, c := range []struct{ use, want int }{{15, 21}, {20, 21}, {25, 31}} {
		if got := extendUses(0, []int{c.use}, adjacent); got != c.want {
			t.Errorf("adjacent loops: extendUses(0, [%d]) = %d, want %d", c.use, got, c.want)
		}
	}
	// A value redefined in the outer loop's back-jump cycle commits at its
	// end, before the next iteration reads the loop-carried value: the two
	// must not share a register.
	carried := interval{start: 0, end: extendUses(0, []int{12}, loops), val: &sched.Value{}}
	redef := interval{start: 30, end: 32, val: &sched.Value{}}
	ivs := []interval{carried, redef}
	if leftEdge(ivs) != 2 || ivs[0].val.Addr == ivs[1].val.Addr {
		t.Errorf("a value defined at back-jump cycle 30 shares register %d with one live across the back edge",
			ivs[1].val.Addr)
	}
}

func TestLeftEdgeProperty(t *testing.T) {
	// Property: left-edge never assigns overlapping intervals to one
	// register and uses at most as many registers as the max overlap
	// depth (it is optimal for interval graphs).
	prop := func(seed []uint8) bool {
		if len(seed) == 0 {
			return true
		}
		if len(seed) > 40 {
			seed = seed[:40]
		}
		type iv struct{ s, e, reg int }
		ivs := make([]iv, len(seed))
		intervals := make([]interval, len(seed))
		for i, b := range seed {
			start := int(b % 50)
			end := start + int(b/8)%20
			ivs[i] = iv{s: start, e: end}
			intervals[i] = interval{start: start, end: end, val: &sched.Value{}}
		}
		vals := make([]*sched.Value, len(intervals))
		for i := range intervals {
			vals[i] = intervals[i].val
		}
		used := leftEdge(intervals)
		for i, v := range vals {
			ivs[i].reg = v.Addr
		}
		// No overlap within a register.
		byReg := map[int][]iv{}
		for _, v := range ivs {
			byReg[v.reg] = append(byReg[v.reg], v)
		}
		for _, group := range byReg {
			for i := 0; i < len(group); i++ {
				for j := i + 1; j < len(group); j++ {
					a, b := group[i], group[j]
					if !(a.e <= b.s || b.e <= a.s) {
						return false
					}
				}
			}
		}
		return used >= 1 && used <= len(ivs)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocateAllWorkloadCompositions(t *testing.T) {
	// Table I inputs must allocate on every evaluated composition.
	src := `
kernel k(array a, in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) {
		v = a[i];
		if (v > 8) {
			j = 0;
			while (j < 2) { v = v >> 1; j = j + 1; }
		}
		s = s + v;
		i = i + 1;
	}
}`
	all, err := arch.EvaluatedCompositions(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range all {
		s := scheduleKernel(t, src, comp)
		res, err := Allocate(s)
		if err != nil {
			t.Errorf("%s: %v", comp.Name, err)
			continue
		}
		if res.CBoxUsage > comp.CBoxSlots {
			t.Errorf("%s: C-Box overflow", comp.Name)
		}
	}
}

func mustParse(t testing.TB, src string) *ir.Kernel {
	t.Helper()
	k, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return k
}
