package cdfg

import (
	"fmt"
	"strings"
)

// RegionKind distinguishes the region-tree node types.
type RegionKind int

// Region kinds.
const (
	// RBlock is a leaf: one straight-line block.
	RBlock RegionKind = iota
	// RSeq executes its children in order.
	RSeq
	// RLoop executes Header, then either exits (condition false) or runs
	// Body and jumps back to Header. Realized with a conditional CCNT
	// jump selected by the C-Box (§IV-A2).
	RLoop
	// RIf evaluates CondBlock, then branches over Then or Else with CCNT
	// jumps. The builder only emits RIf for conditionals that contain
	// loops; all other conditionals are predicated into their parent
	// block.
	RIf
)

func (k RegionKind) String() string {
	switch k {
	case RBlock:
		return "block"
	case RSeq:
		return "seq"
	case RLoop:
		return "loop"
	case RIf:
		return "if"
	}
	return fmt.Sprintf("RegionKind(%d)", int(k))
}

// Region is one node of the region tree.
type Region struct {
	ID   int
	Kind RegionKind
	// Block is the leaf payload (RBlock).
	Block *Block
	// Children are the sequence elements (RSeq).
	Children []*Region
	// Header evaluates the loop condition (RLoop). Its Cond field is the
	// continue-condition: true runs Body, false exits.
	Header *Block
	// Body is the loop body (RLoop).
	Body *Region
	// CondBlock evaluates the branch condition (RIf).
	CondBlock *Block
	// Then and Else are the branch arms (RIf); Else may be nil.
	Then, Else *Region
	// Parent is the enclosing region (nil at root).
	Parent *Region
	// Depth is the loop nesting depth (number of enclosing RLoops,
	// counting the region itself when it is an RLoop).
	Depth int
}

// EnclosingLoop returns the innermost RLoop containing r (or r itself if it
// is a loop), or nil.
func (r *Region) EnclosingLoop() *Region {
	for q := r; q != nil; q = q.Parent {
		if q.Kind == RLoop {
			return q
		}
	}
	return nil
}

// Walk visits r and all descendants in pre-order.
func (r *Region) Walk(f func(*Region)) {
	if r == nil {
		return
	}
	f(r)
	for _, c := range r.Children {
		c.Walk(f)
	}
	r.Body.Walk(f)
	r.Then.Walk(f)
	r.Else.Walk(f)
}

// Blocks returns every block in the subtree, in execution order (header and
// condition blocks before their bodies/arms).
func (r *Region) Blocks() []*Block { return r.AppendBlocks(nil) }

// AppendBlocks appends the blocks of Blocks to dst, so a caller can reuse
// one buffer.
func (r *Region) AppendBlocks(dst []*Block) []*Block {
	if r == nil {
		return dst
	}
	switch r.Kind {
	case RBlock:
		dst = append(dst, r.Block)
	case RLoop:
		dst = append(dst, r.Header)
	case RIf:
		dst = append(dst, r.CondBlock)
	}
	for _, c := range r.Children {
		dst = c.AppendBlocks(dst)
	}
	dst = r.Body.AppendBlocks(dst)
	dst = r.Then.AppendBlocks(dst)
	return r.Else.AppendBlocks(dst)
}

// Local describes one scalar variable of the graph: a kernel parameter, a
// user variable, or a synthesized temporary.
type Local struct {
	// ID numbers the locals densely from 0 in order of first sight (the
	// scalar parameters first): Graph.Locals[l.ID] is l, and per-local
	// tables index by it instead of hashing the name.
	ID   int
	Name string
	// LiveIn locals receive their value from the host before the run.
	LiveIn bool
	// LiveOut locals are sent back to the host after the run.
	LiveOut bool
}

// Stats summarizes the control structure of a graph; the Fig. 12 view of a
// kernel (loops, branch points, nesting).
type Stats struct {
	Blocks        int
	Nodes         int
	PWrites       int
	DMALoads      int
	DMAStores     int
	Compares      int
	Loops         int
	MaxLoopDepth  int
	BranchedIfs   int
	Predicates    int
	PredicatedOps int
}

// Graph is the compiled CDFG of one kernel.
type Graph struct {
	KernelName string
	Root       *Region
	// Locals lists every scalar variable, indexed by Local.ID.
	Locals []*Local
	// Arrays lists the array parameters; a node's Array field indexes it.
	Arrays []string
	// Preds lists all predicates, indexed by Pred.ID.
	Preds []*Pred

	byName map[string]*Local

	nextNode   int
	nextBlock  int
	nextRegion int
}

// Local returns the named scalar variable, or nil.
func (g *Graph) Local(name string) *Local { return g.byName[name] }

// ArrayID returns the index of the named array parameter, or -1.
func (g *Graph) ArrayID(name string) int {
	for i, a := range g.Arrays {
		if a == name {
			return i
		}
	}
	return -1
}

// LiveIns returns the names of live-in locals in deterministic order.
func (g *Graph) LiveIns() []string { return g.liveList(func(l *Local) bool { return l.LiveIn }) }

// LiveOuts returns the names of live-out locals in deterministic order.
func (g *Graph) LiveOuts() []string { return g.liveList(func(l *Local) bool { return l.LiveOut }) }

func (g *Graph) liveList(keep func(*Local) bool) []string {
	var names []string
	for _, l := range g.Locals {
		if keep(l) {
			names = append(names, l.Name)
		}
	}
	sortStrings(names)
	return names
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// AllNodes returns every node in the graph, in block execution order.
func (g *Graph) AllNodes() []*Node {
	var buf [64]*Block
	out := make([]*Node, 0, g.nextNode)
	for _, b := range g.Root.AppendBlocks(buf[:0]) {
		out = append(out, b.Nodes...)
	}
	return out
}

// Stats computes the structural summary of the graph.
func (g *Graph) Stats() Stats {
	var st Stats
	st.Predicates = len(g.Preds)
	g.Root.Walk(func(r *Region) {
		switch r.Kind {
		case RLoop:
			st.Loops++
			if r.Depth > st.MaxLoopDepth {
				st.MaxLoopDepth = r.Depth
			}
		case RIf:
			st.BranchedIfs++
		}
	})
	for _, b := range g.Root.Blocks() {
		st.Blocks++
		for _, n := range b.Nodes {
			st.Nodes++
			if n.Pred != nil {
				st.PredicatedOps++
			}
			switch {
			case n.Kind == KPWrite:
				st.PWrites++
			case n.Op.IsDMA():
				if n.Op.String() == "LOAD" {
					st.DMALoads++
				} else {
					st.DMAStores++
				}
			case n.IsCompare():
				st.Compares++
			}
		}
	}
	return st
}

// String renders the region tree with its blocks, for debugging and tests.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cdfg %s\n", g.KernelName)
	var dump func(r *Region, indent string)
	dump = func(r *Region, indent string) {
		if r == nil {
			return
		}
		switch r.Kind {
		case RBlock:
			fmt.Fprintf(&b, "%s%s", indent, indentLines(r.Block.String(), indent))
		case RSeq:
			fmt.Fprintf(&b, "%sseq {\n", indent)
			for _, c := range r.Children {
				dump(c, indent+"  ")
			}
			fmt.Fprintf(&b, "%s}\n", indent)
		case RLoop:
			fmt.Fprintf(&b, "%sloop (depth %d) header:\n", indent, r.Depth)
			fmt.Fprintf(&b, "%s  %s", indent, indentLines(r.Header.String(), indent+"  "))
			fmt.Fprintf(&b, "%sbody {\n", indent)
			dump(r.Body, indent+"  ")
			fmt.Fprintf(&b, "%s}\n", indent)
		case RIf:
			fmt.Fprintf(&b, "%sif cond:\n", indent)
			fmt.Fprintf(&b, "%s  %s", indent, indentLines(r.CondBlock.String(), indent+"  "))
			fmt.Fprintf(&b, "%sthen {\n", indent)
			dump(r.Then, indent+"  ")
			fmt.Fprintf(&b, "%s}\n", indent)
			if r.Else != nil {
				fmt.Fprintf(&b, "%selse {\n", indent)
				dump(r.Else, indent+"  ")
				fmt.Fprintf(&b, "%s}\n", indent)
			}
		}
	}
	dump(g.Root, "")
	return b.String()
}

func indentLines(s, indent string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return strings.Join(lines, "\n"+indent) + "\n"
}
