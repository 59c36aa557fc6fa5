// Package route computes routing information over a composition's
// interconnect. The paper uses the Floyd algorithm (Floyd 1962, [19]) to find
// shortest paths between PEs; the scheduler consults these paths when it has
// to copy values across PEs that are not directly connected.
package route

import (
	"fmt"

	"cgra/internal/arch"
)

// Inf marks unreachable PE pairs in the distance table.
const Inf = int(1) << 30

// Table holds all-pairs shortest-path data for one composition. Distances
// count routing hops: dist(a, a) == 0, dist(a, b) == 1 when b has a direct
// input from a. Data flows along directed interconnect edges (a value moves
// from PE a to PE b if b can read a's routing output).
type Table struct {
	n    int
	dist [][]int
	next [][]int // next[a][b]: first hop on a shortest path a→b, -1 if none
}

// New builds the table with Floyd–Warshall in O(n³).
func New(c *arch.Composition) *Table {
	n := c.NumPEs()
	t := &Table{n: n}
	t.dist = make([][]int, n)
	t.next = make([][]int, n)
	for i := 0; i < n; i++ {
		t.dist[i] = make([]int, n)
		t.next[i] = make([]int, n)
		for j := 0; j < n; j++ {
			t.dist[i][j] = Inf
			t.next[i][j] = -1
		}
		t.dist[i][i] = 0
		t.next[i][i] = i
	}
	// Edge a→b exists when PE b lists a as an input.
	for _, pe := range c.PEs {
		for _, src := range pe.Inputs {
			t.dist[src][pe.Index] = 1
			t.next[src][pe.Index] = pe.Index
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := t.dist[i][k]
			if dik == Inf {
				continue
			}
			for j := 0; j < n; j++ {
				if d := dik + t.dist[k][j]; d < t.dist[i][j] {
					t.dist[i][j] = d
					t.next[i][j] = t.next[i][k]
				}
			}
		}
	}
	return t
}

// Dist returns the hop count of the shortest route from a to b, or Inf.
func (t *Table) Dist(a, b int) int { return t.dist[a][b] }

// Reachable reports whether data can be routed from a to b at all.
func (t *Table) Reachable(a, b int) bool { return t.dist[a][b] < Inf }

// Path returns the PE sequence of one shortest route from a to b, inclusive
// of both endpoints. It returns an error when b is unreachable from a.
func (t *Table) Path(a, b int) ([]int, error) {
	if a < 0 || a >= t.n || b < 0 || b >= t.n {
		return nil, fmt.Errorf("route: PE index out of range (%d, %d)", a, b)
	}
	if !t.Reachable(a, b) {
		return nil, fmt.Errorf("route: PE %d unreachable from PE %d", b, a)
	}
	path := []int{a}
	for cur := a; cur != b; {
		cur = t.next[cur][b]
		path = append(path, cur)
	}
	return path, nil
}

// FullyConnected reports whether every PE can reach every other PE. The
// scheduler requires this: a composition with unreachable pairs could leave
// values stranded.
func (t *Table) FullyConnected() bool {
	for i := 0; i < t.n; i++ {
		for j := 0; j < t.n; j++ {
			if !t.Reachable(i, j) {
				return false
			}
		}
	}
	return true
}

// NearestFrom returns the PE in candidates with the smallest distance from
// src (ties to the lower index), or -1 when none is reachable.
func (t *Table) NearestFrom(src int, candidates []int) int {
	best, bestD := -1, Inf
	for _, c := range candidates {
		if d := t.dist[src][c]; d < bestD {
			best, bestD = c, d
		}
	}
	return best
}
