package route

import (
	"testing"
	"testing/quick"

	"cgra/internal/arch"
)

func mesh(t *testing.T, n int) *arch.Composition {
	t.Helper()
	c, err := arch.HomogeneousMesh(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMeshDistances(t *testing.T) {
	c := mesh(t, 9) // 3x3
	tab := New(c)
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 2}, {0, 4, 2}, {0, 8, 4}, {4, 8, 2},
	}
	for _, cse := range cases {
		if got := tab.Dist(cse.a, cse.b); got != cse.want {
			t.Errorf("Dist(%d,%d) = %d, want %d", cse.a, cse.b, got, cse.want)
		}
	}
	if !tab.FullyConnected() {
		t.Error("mesh should be fully connected")
	}
	diameter := 0
	for a := 0; a < 9; a++ {
		for b := 0; b < 9; b++ {
			diameter = max(diameter, tab.Dist(a, b))
		}
	}
	if diameter != 4 {
		t.Errorf("3x3 mesh diameter = %d, want 4", diameter)
	}
}

func TestPathValid(t *testing.T) {
	for _, n := range []int{4, 6, 8, 9, 12, 16} {
		c := mesh(t, n)
		tab := New(c)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				p, err := tab.Path(a, b)
				if err != nil {
					t.Fatalf("%d PEs: Path(%d,%d): %v", n, a, b, err)
				}
				if p[0] != a || p[len(p)-1] != b {
					t.Fatalf("path endpoints wrong: %v", p)
				}
				if len(p)-1 != tab.Dist(a, b) {
					t.Fatalf("path length %d != dist %d", len(p)-1, tab.Dist(a, b))
				}
				// Every step must follow a real interconnect edge.
				for i := 1; i < len(p); i++ {
					if !c.PEs[p[i]].CanReadFrom(p[i-1]) {
						t.Fatalf("path %v uses missing edge %d→%d", p, p[i-1], p[i])
					}
				}
			}
		}
	}
}

func TestIrregularDistances(t *testing.T) {
	// B (ring) must have a larger mean distance than D (rich interconnect).
	b, err := arch.IrregularComposition("B", 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := arch.IrregularComposition("D", 2)
	if err != nil {
		t.Fatal(err)
	}
	tb, td := New(b), New(d)
	if !tb.FullyConnected() || !td.FullyConnected() {
		t.Fatal("evaluated compositions must be fully connected")
	}
	if mb, md := meanDistance(tb, b.NumPEs()), meanDistance(td, d.NumPEs()); mb <= md {
		t.Errorf("mean distance B (%.2f) should exceed D (%.2f)", mb, md)
	}
}

// meanDistance averages the distance over distinct pairs of a fully
// connected n-PE table.
func meanDistance(tab *Table, n int) float64 {
	sum := 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			sum += tab.Dist(a, b)
		}
	}
	return float64(sum) / float64(n*(n-1))
}

func TestUnreachable(t *testing.T) {
	c := mesh(t, 4)
	// Cut PE 3 off entirely (no inputs anywhere referencing it, no inputs).
	for _, pe := range c.PEs {
		var in []int
		for _, s := range pe.Inputs {
			if s != 3 {
				in = append(in, s)
			}
		}
		pe.Inputs = in
	}
	c.PEs[3].Inputs = nil
	tab := New(c)
	if tab.FullyConnected() {
		t.Error("disconnected composition reported fully connected")
	}
	if tab.Reachable(0, 3) {
		t.Error("PE 3 should be unreachable")
	}
	if _, err := tab.Path(0, 3); err == nil {
		t.Error("Path to unreachable PE should error")
	}
	if _, err := tab.Path(0, 99); err == nil {
		t.Error("out-of-range index should error")
	}
}

func TestTriangleInequality(t *testing.T) {
	// Property: the shortest-path metric satisfies the triangle inequality
	// on every evaluated composition.
	all, err := arch.EvaluatedCompositions(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all {
		tab := New(c)
		n := c.NumPEs()
		f := func(a, b, k uint8) bool {
			i, j, m := int(a)%n, int(b)%n, int(k)%n
			return tab.Dist(i, j) <= tab.Dist(i, m)+tab.Dist(m, j)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestNearestFrom(t *testing.T) {
	c := mesh(t, 9)
	tab := New(c)
	if got := tab.NearestFrom(0, []int{8, 4, 2}); got != 4 && got != 2 {
		t.Errorf("NearestFrom(0) = %d, want 2 or 4 (both at distance 2)", got)
	}
	if got := tab.NearestFrom(0, []int{1}); got != 1 {
		t.Errorf("NearestFrom = %d", got)
	}
	if got := tab.NearestFrom(0, nil); got != -1 {
		t.Errorf("NearestFrom(empty) = %d, want -1", got)
	}
}

func TestDirectedInterconnect(t *testing.T) {
	// A strictly one-way pair: PE 1 reads PE 0, never vice versa.
	c := mesh(t, 4)
	c.PEs[0].Inputs = []int{2} // remove 1 as input of 0
	tab := New(c)
	if tab.Dist(0, 1) != 1 {
		t.Errorf("0→1 should remain direct, got %d", tab.Dist(0, 1))
	}
	// 1→0 must route around (1→3→2→0 or 1→... ), not use the removed edge.
	d := tab.Dist(1, 0)
	if d != 3 {
		t.Errorf("1→0 = %d, want 3 (around the ring)", d)
	}
}
