package sched

import (
	"context"

	"cgra/internal/arch"
	"cgra/internal/cdfg"
	"cgra/internal/route"
)

// This file holds the scheduler's per-run tables. They are built once per
// run, next to the routing table, and indexed by small integers (node ID,
// predicate ID, PE, opcode, cycle): the placement loop consults them at every
// time step for every candidate, and hashing pointers or rebuilding slices
// there was most of a compile. Nothing here is shared between runs, so
// concurrent compiles on one composition stay independent.

// peTables is what the placement loop asks the composition, precomputed.
type peTables struct {
	numOps int
	// dur[pe*numOps+op] is op's latency on pe, 0 when pe lacks op.
	dur []int
	// supp[op] lists the PEs implementing op, ascending.
	supp [][]int
	// repDur[op] is op's slowest implementation (1 when none), the
	// composition-representative latency priorities are computed with.
	repDur []int
	// degree[pe] is arch.Composition.Degree.
	degree []int
	// readers[pe] is pe followed by the PEs that read its routing output:
	// everyone that can access a value in pe's register file.
	readers [][]int
}

func newPETables(comp *arch.Composition) peTables {
	numPEs, numOps := comp.NumPEs(), len(arch.AllOpCodes())
	t := peTables{
		numOps:  numOps,
		dur:     make([]int, numPEs*numOps),
		supp:    make([][]int, numOps),
		repDur:  make([]int, numOps),
		degree:  make([]int, numPEs),
		readers: make([][]int, numPEs),
	}
	// The lists of both list tables are cut from one arena each.
	pairs := 0
	for i, pe := range comp.PEs {
		t.dur[i*numOps+int(arch.NOP)] = pe.Duration(arch.NOP)
		for op := range pe.Ops {
			t.dur[i*numOps+int(op)] = pe.Duration(op)
		}
		for _, d := range t.dur[i*numOps : (i+1)*numOps] {
			if d > 0 {
				pairs++
			}
		}
	}
	arena := make([]int, 0, pairs)
	for op := 0; op < numOps; op++ {
		t.repDur[op] = 1
		first := len(arena)
		for i := 0; i < numPEs; i++ {
			if d := t.dur[i*numOps+op]; d > 0 {
				arena = append(arena, i)
				t.repDur[op] = max(t.repDur[op], d)
			}
		}
		t.supp[op] = arena[first:len(arena):len(arena)]
	}
	links := 0
	for i := range comp.PEs {
		t.degree[i] = comp.Degree(i)
		links += len(comp.PEs[i].Inputs)
	}
	arena = make([]int, 0, numPEs+links)
	for i := range comp.PEs {
		first := len(arena)
		arena = append(arena, i)
		for _, pe := range comp.PEs {
			if pe.CanReadFrom(i) {
				arena = append(arena, pe.Index)
			}
		}
		t.readers[i] = arena[first:len(arena):len(arena)]
	}
	return t
}

// supports reports whether pe implements op.
func (t *peTables) supports(pe int, op arch.OpCode) bool { return t.dur[pe*t.numOps+int(op)] > 0 }

// duration is op's latency on a PE that implements it.
func (t *peTables) duration(pe int, op arch.OpCode) int { return t.dur[pe*t.numOps+int(op)] }

// nodeState is everything the scheduler knows about one CDFG node.
type nodeState struct {
	// issue and finish are the node's first and last busy cycle, -1 until
	// it is scheduled.
	issue, finish int
	// val is the RF-resident result; copies are its routing copies, in
	// ascending value ID.
	val    *Value
	copies []*Value
	// role is a compare's part in evaluating a condition (nil otherwise).
	role *cmpRole
	// consumers read the node's value through a FromNode operand.
	consumers []*cdfg.Node
	// block is the ID of the block that holds the node.
	block int

	// The rest is set when the node's block is scheduled.

	// chain lists the compares whose status the C-Box must consume before
	// this one's: strict dependencies beyond Prereqs and Args.
	chain []*cdfg.Node
	// succs are the block's nodes strictly depending on this one; waiting
	// counts this node's own strict dependencies that have not issued.
	succs   []*cdfg.Node
	waiting int
	// ready is the earliest issue cycle the issued dependencies permit.
	ready int
	// prio is the longest-path weight to any sink of the block.
	prio int
	// fusable is the pWRITE that may fold into this producer.
	fusable *cdfg.Node
}

// localState is the scheduling state of one local variable.
type localState struct {
	// home is the local's home slot, nil until assigned; RunCtx copies
	// the homes into Schedule.Homes once placement is done.
	home *Value
	// copies are routing copies of the current value, ascending value ID.
	copies []*Value
	// fusedProd is the producer whose RF write was fused with the home
	// slot; a later pWRITE of the local must wait until all of the
	// producer's value consumers have issued.
	fusedProd *cdfg.Node
}

// condState is the C-Box plan of one condition (sub-)expression.
type condState struct {
	slot *Slot
	// ready is the first cycle the slot holds the result, -1 before its
	// last C-Box operation is placed.
	ready int
}

// predState is the C-Box plan of one predicate.
type predState struct {
	seen bool
	slot *Slot
	// ready is -1 until the predicate's own combine is placed; predicates
	// that alias their condition's slot never get one.
	ready int
}

func newScheduler(ctx context.Context, g *cdfg.Graph, comp *arch.Composition, rt *route.Table, opts Options, pipeline bool) *scheduler {
	s := &scheduler{
		ctx:      ctx,
		comp:     comp,
		rt:       rt,
		opts:     opts,
		pipeline: pipeline,
		sch: &Schedule{
			Comp:  comp,
			Graph: g,
			CCU:   map[int]*CCUOp{},
		},
		peTables: newPETables(comp),
		locals:   make([]localState, len(g.Locals)),
		consts:   map[int32][]*Value{},
		preds:    make([]predState, len(g.Preds)),
		conds:    map[*cdfg.CondExpr]*condState{},
		busy:     make([][]bool, comp.NumPEs()),
		outl:     make([][]*Value, comp.NumPEs()),
		scores:   make([]int, comp.NumPEs()),
	}
	for i := range s.preds {
		s.preds[i].ready = -1
	}
	// Node tables. Consumers (for the attraction criterion and for fusing
	// legality) are sub-slices of one arena, filled in graph order.
	s.blkBuf = g.Root.AppendBlocks(s.blkBuf)
	blocks := s.blkBuf
	numNodes, numEdges := 0, 0
	for _, b := range blocks {
		for _, n := range b.Nodes {
			if n.ID >= numNodes {
				numNodes = n.ID + 1
			}
		}
	}
	s.nodes = make([]nodeState, numNodes)
	s.attraction = make([]int, numNodes*comp.NumPEs())
	s.counts = make([]int, numNodes)
	for _, b := range blocks {
		for _, n := range b.Nodes {
			st := &s.nodes[n.ID]
			st.issue, st.finish, st.block = -1, -1, b.ID
			for _, a := range n.Args {
				if a.Kind == cdfg.FromNode {
					s.counts[a.Node.ID]++
					numEdges++
				}
			}
		}
	}
	arena := make([]*cdfg.Node, numEdges)
	for i, k := range s.counts {
		s.nodes[i].consumers, arena = arena[:0:k], arena[k:]
		s.counts[i] = 0
	}
	for _, b := range blocks {
		for _, n := range b.Nodes {
			for _, a := range n.Args {
				if a.Kind == cdfg.FromNode {
					st := &s.nodes[a.Node.ID]
					st.consumers = append(st.consumers, n)
				}
			}
		}
	}
	return s
}

// st returns n's state.
func (s *scheduler) st(n *cdfg.Node) *nodeState { return &s.nodes[n.ID] }

// local returns l's state.
func (s *scheduler) local(l *cdfg.Local) *localState { return &s.locals[l.ID] }

// home returns l's home slot, nil while it has none.
func (s *scheduler) home(l *cdfg.Local) *Value { return s.locals[l.ID].home }

// sourcesOf lists the RF-resident instances of an operand's value in
// ascending value ID. The result is only valid until the next call.
func (s *scheduler) sourcesOf(a cdfg.Operand) []*Value {
	var head *Value
	var copies []*Value
	switch a.Kind {
	case cdfg.FromConst:
		return s.consts[a.Const]
	case cdfg.FromLocal:
		l := s.local(a.Local)
		head, copies = l.home, l.copies
	case cdfg.FromNode:
		st := s.st(a.Node)
		head, copies = st.val, st.copies
	}
	if head == nil {
		return copies
	}
	// The home slot or node result is older than its copies in every case
	// the scheduler produces; placing it by ID keeps the order right even
	// if that ever changes.
	out := s.srcBuf[:0]
	for i, v := range copies {
		if head.ID < v.ID {
			out = append(append(out, head), copies[i:]...)
			head = nil
			break
		}
		out = append(out, v)
	}
	if head != nil {
		out = append(out, head)
	}
	s.srcBuf = out
	return out
}

// onPE returns the value of list that lives on pe, or nil.
func onPE(list []*Value, pe int) *Value {
	for _, v := range list {
		if v.PE == pe {
			return v
		}
	}
	return nil
}

// addCopy appends v to an ID-ordered copy list unless the list already holds
// a copy on v's PE (values are created in ID order, so appending keeps the
// order).
func addCopy(list []*Value, v *Value) []*Value {
	if onPE(list, v.PE) != nil {
		return list
	}
	return append(list, v)
}

// definedBefore filters list in place down to the values written before cycle.
func definedBefore(list []*Value, cycle int) []*Value {
	kept := list[:0]
	for _, v := range list {
		if v.Def < cycle {
			kept = append(kept, v)
		}
	}
	return kept
}

// at returns table[i], or the zero value beyond the table's end: the
// cycle-indexed tables grow on write only.
func at[T any](table []T, i int) T {
	if i < len(table) {
		return table[i]
	}
	var zero T
	return zero
}

// grown returns table extended with zero values to hold index i. Cycle
// tables start at 32 entries and double, so a run grows each a few times.
func grown[T any](table []T, i int) []T {
	if i < len(table) {
		return table
	}
	if i < cap(table) {
		return table[:i+1] // never written beyond len: still zero
	}
	next := make([]T, i+1, max(2*cap(table), i+1, 32))
	copy(next, table)
	return next
}

// put stores v at table[i], growing the table as needed.
func put[T any](table []T, i int, v T) []T {
	table = grown(table, i)
	table[i] = v
	return table
}
