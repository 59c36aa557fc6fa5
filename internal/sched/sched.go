package sched

import (
	"context"
	"fmt"
	"sort"

	"cgra/internal/arch"
	"cgra/internal/cdfg"
	"cgra/internal/route"
)

// Run schedules graph g onto composition comp and returns the complete
// schedule (contexts are generated from it by package ctxgen).
func Run(g *cdfg.Graph, comp *arch.Composition, opts Options) (*Schedule, error) {
	return RunCtx(context.Background(), g, comp, opts)
}

// RunCtx is Run with cooperative cancellation: the scheduler checks the
// context once per time step of its candidate loop (and, under the modulo
// backend, once per II attempt and per backtrack budget slice) and aborts
// with the context's error (wrapped, so errors.Is works). A cancelled run
// returns no schedule — never a partial one.
//
// Options.Backend selects the strategy; see Backends() for valid names.
// Under the modulo backend innermost eligible loops are software-pipelined
// by the modulo scheduler; everything else (and every fallback) uses the
// list layout.
func RunCtx(ctx context.Context, g *cdfg.Graph, comp *arch.Composition, opts Options) (*Schedule, error) {
	backend, err := BackendByName(opts.Backend)
	if err != nil {
		return nil, err
	}
	pipeline := backend == BackendModulo
	if err := comp.Validate(); err != nil {
		return nil, fmt.Errorf("sched: %v", err)
	}
	rt := route.New(comp)
	if !rt.FullyConnected() {
		return nil, fmt.Errorf("sched: composition %s is not fully connected; values could strand", comp.Name)
	}
	if opts.MaxCycles == 0 {
		opts.MaxCycles = DefaultMaxCycles
	}
	s := newScheduler(ctx, g, comp, rt, opts, pipeline)
	place := opts.Span.StartChild("place")
	end, err := s.region(g.Root, 0)
	if err != nil {
		place.Finish()
		return nil, err
	}
	// Give every untouched live-in/live-out local a home so the
	// invocation protocol has a transfer target even for unused
	// parameters.
	for _, name := range g.LiveIns() {
		s.homeValue(g.Local(name), 0)
	}
	for _, name := range g.LiveOuts() {
		s.homeValue(g.Local(name), 0)
	}
	s.sch.Homes = make(map[string]*Value, len(g.Locals))
	for i, l := range g.Locals {
		if home := s.locals[i].home; home != nil {
			s.sch.Homes[l.Name] = home
		}
	}
	// Halt context: the CCNT jumps to the last entry and stays locked
	// (§IV-A3). Realized as a self-jump.
	halt := s.jump(&CCUOp{Cycle: end, Uncond: true})
	halt.Target = halt.Cycle
	s.sch.Length = halt.Cycle + 1
	sort.SliceStable(s.sch.Ops, func(i, j int) bool {
		a, b := s.sch.Ops[i], s.sch.Ops[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		return a.PE < b.PE
	})
	sort.SliceStable(s.sch.CBox, func(i, j int) bool {
		return s.sch.CBox[i].Cycle < s.sch.CBox[j].Cycle
	})
	place.Finish()
	vs := opts.Span.StartChild("verify")
	err = Verify(s.sch)
	vs.Finish()
	if err != nil {
		return nil, fmt.Errorf("sched: internal verification failed: %v", err)
	}
	opts.Span.Set("nodes", int64(s.sch.Stats.Nodes))
	opts.Span.Set("copies", int64(s.sch.Stats.CopiesInserted))
	opts.Span.Set("consts", int64(s.sch.Stats.ConstsMaterialized))
	opts.Span.Set("cbox_ops", int64(s.sch.Stats.CBoxOps))
	opts.Span.Set("contexts", int64(s.sch.Length))
	if pipeline {
		opts.Span.Set("pipelined_loops", int64(s.sch.Stats.PipelinedLoops))
		opts.Span.Set("modulo_backtracks", int64(s.sch.Stats.ModuloBacktracks))
	}
	return s.sch, nil
}

// cmpRole describes how one compare node feeds the C-Box: it completes the
// condition sub-expression Expr by combining its status with the already
// stored result of Stored (nil for the first leaf of a chain).
type cmpRole struct {
	Expr   *condState
	Stored *condState
	Logic  CBLogic
}

// pendingComb is a floated C-Box operation that combines stored conditions:
// either joining two condition sub-trees or conjoining a predicate with its
// parent.
type pendingComb struct {
	// For cond-tree joins:
	x, y  *condState
	logic CBLogic
	out   *condState
	// For predicate slots:
	pred *cdfg.Pred
}

type scheduler struct {
	// ctx carries the caller's deadline; the block scheduler polls it once
	// per time step.
	ctx  context.Context
	comp *arch.Composition
	rt   *route.Table
	opts Options
	sch  *Schedule
	// pipeline enables the modulo backend's loop pipelining in region().
	pipeline bool

	// Per-run dense tables (tables.go): what the composition says about
	// each PE and opcode, and the scheduling state of every node, local,
	// constant and predicate.
	peTables
	nodes  []nodeState        // by Node.ID
	locals []localState       // by Local.ID
	consts map[int32][]*Value // materialized constants, ascending value ID
	preds  []predState        // by Pred.ID
	conds  map[*cdfg.CondExpr]*condState
	// attraction[n.ID*NumPEs+pe] is node n's pull toward pe (§V-G).
	attraction []int

	busy     [][]bool   // [pe][cycle]
	outl     [][]*Value // [pe][cycle]: the value the routing output carries
	cboxBusy []bool     // [cycle]
	predRead []*Slot    // [cycle]: the slot driving the predication signal

	pending []*pendingComb
	// blk is the state of the block being scheduled; its buffers are reused
	// from block to block.
	blk blockState

	// Scratch buffers of the placement loop, reused by every call. counts
	// is all zero between uses (by Node.ID: list lengths before an arena
	// is cut into them).
	counts  []int
	blkBuf  []*cdfg.Block
	srcBuf  []*Value
	argSrcs []Src
	depBuf  []*cdfg.Node
	peKeys  []peKey
	peOrder []int
	scores  []int

	// safeFloor is the earliest cycle scheduler-inserted operations may
	// occupy: the start of the current unconditional straight-line
	// stretch. Holes before it belong to contexts that re-execute in
	// loops or execute conditionally.
	safeFloor int
}

// region schedules region r starting at cycle start and returns the first
// cycle after it.
func (s *scheduler) region(r *cdfg.Region, start int) (int, error) {
	if r == nil {
		return start, nil
	}
	switch r.Kind {
	case cdfg.RBlock:
		return s.block(r.Block, start)
	case cdfg.RSeq:
		t := start
		var err error
		for _, c := range r.Children {
			t, err = s.region(c, t)
			if err != nil {
				return 0, err
			}
		}
		return t, nil
	case cdfg.RLoop:
		if s.pipeline {
			end, ok, err := s.tryPipeline(r, start)
			if err != nil {
				return 0, err
			}
			if ok {
				return end, nil
			}
		}
		return s.loop(r, start)
	case cdfg.RIf:
		return s.branchedIf(r, start)
	default:
		return 0, fmt.Errorf("unknown region kind %v", r.Kind)
	}
}

// loop lays the loop out as contiguous contexts:
//
//	hdrStart: header block (evaluates continue condition into a slot)
//	J:        conditional jump to exit when the condition is false
//	J+1..:    body
//	BJ:       unconditional jump back to hdrStart
//	BJ+1:     exit
func (s *scheduler) loop(r *cdfg.Region, start int) (int, error) {
	hdrStart := start
	s.safeFloor = hdrStart
	// Copies of locals written anywhere in the loop are stale across
	// iterations: drop them before scheduling the header.
	s.purgeWrittenCopies(r)

	hdrEnd, err := s.block(r.Header, hdrStart)
	if err != nil {
		return 0, err
	}
	if r.Header.Cond == nil {
		return 0, fmt.Errorf("loop region %d has no condition", r.ID)
	}
	cont := s.conds[r.Header.Cond]
	if cont == nil || cont.ready < 0 {
		return 0, fmt.Errorf("loop region %d: condition slot not computed", r.ID)
	}
	j := maxInt(maxInt(hdrEnd-1, cont.ready), hdrStart)
	exitJump := s.jump(&CCUOp{Cycle: j, Slot: cont.slot, Invert: true}) // jump when NOT continue

	bodyStart := exitJump.Cycle + 1
	s.safeFloor = bodyStart
	bodyEnd, err := s.region(r.Body, bodyStart)
	if err != nil {
		return 0, err
	}
	bj := s.jump(&CCUOp{Cycle: maxInt(bodyEnd-1, bodyStart), Uncond: true, Target: hdrStart}).Cycle
	exit := bj + 1
	exitJump.Target = exit

	s.sch.LoopRanges = append(s.sch.LoopRanges, [2]int{hdrStart, bj})
	// Copies created in the body may not have executed (zero iterations)
	// or may be stale; drop them. Header copies survive: the header runs
	// at least once and runs last.
	s.purgeCopiesFrom(bodyStart)
	s.safeFloor = exit
	return exit, nil
}

// branchedIf lays a conditional containing loops out with CCNT jumps:
//
//	condStart: condition block
//	J:         jump to elseStart (or end) when the condition is false
//	then...    (ends with a jump over the else arm when one exists)
//	else...
func (s *scheduler) branchedIf(r *cdfg.Region, start int) (int, error) {
	s.safeFloor = start
	condEnd, err := s.block(r.CondBlock, start)
	if err != nil {
		return 0, err
	}
	if r.CondBlock.Cond == nil {
		return 0, fmt.Errorf("if region %d has no condition", r.ID)
	}
	cond := s.conds[r.CondBlock.Cond]
	if cond == nil || cond.ready < 0 {
		return 0, fmt.Errorf("if region %d: condition slot not computed", r.ID)
	}
	j := maxInt(maxInt(condEnd-1, cond.ready), start)
	condJump := s.jump(&CCUOp{Cycle: j, Slot: cond.slot, Invert: true})

	thenStart := condJump.Cycle + 1
	s.safeFloor = thenStart
	thenEnd, err := s.region(r.Then, thenStart)
	if err != nil {
		return 0, err
	}
	// Copies and constants materialized in the then arm only exist at run
	// time when the branch went that way: they must be invisible to the
	// else arm and to everything after the conditional.
	s.purgeCopiesFrom(thenStart)
	end := thenEnd
	if r.Else != nil {
		skipElse := s.jump(&CCUOp{Cycle: maxInt(thenEnd-1, thenStart), Uncond: true})
		elseStart := skipElse.Cycle + 1
		condJump.Target = elseStart
		s.safeFloor = elseStart
		elseEnd, err := s.region(r.Else, elseStart)
		if err != nil {
			return 0, err
		}
		end = maxInt(elseEnd, elseStart)
		skipElse.Target = end
		s.purgeCopiesFrom(elseStart)
	} else {
		condJump.Target = maxInt(thenEnd, thenStart)
		end = condJump.Target
	}
	s.safeFloor = end
	return end, nil
}

// purgeWrittenCopies invalidates copies of every local that is written
// anywhere inside region r (loop-carried staleness).
func (s *scheduler) purgeWrittenCopies(r *cdfg.Region) {
	s.blkBuf = r.AppendBlocks(s.blkBuf[:0])
	for _, b := range s.blkBuf {
		for _, n := range b.Nodes {
			if n.Kind != cdfg.KPWrite {
				continue
			}
			l := s.local(n.Local)
			l.copies, l.fusedProd = nil, nil
		}
	}
}

// purgeCopiesFrom drops every copy (local, constant or node copy) defined at
// or after the given cycle.
func (s *scheduler) purgeCopiesFrom(cycle int) {
	for i := range s.locals {
		l := &s.locals[i]
		l.copies = definedBefore(l.copies, cycle)
	}
	for c, list := range s.consts {
		s.consts[c] = definedBefore(list, cycle)
	}
	for i := range s.nodes {
		if st := &s.nodes[i]; len(st.copies) > 0 {
			st.copies = definedBefore(st.copies, cycle)
		}
	}
}

// --- resource helpers ---

// emit appends op to the schedule, the only writer of Schedule.Ops: it
// records the operand reads and marks op.PE busy for op.Dur cycles.
func (s *scheduler) emit(op *Op) {
	s.commitSrc(op.A, op.Cycle)
	s.commitSrc(op.B, op.Cycle)
	s.markBusy(op.PE, op.Cycle, op.Dur)
	s.sch.Ops = append(s.sch.Ops, op)
}

// commitSrc records a register or route read of src at cycle t for lifetime
// analysis; a routed read also reserves the source's routing output.
func (s *scheduler) commitSrc(src Src, t int) {
	if src.Kind == SrcNone {
		return
	}
	src.Val.Uses = append(src.Val.Uses, t)
	if src.Kind == SrcRoute {
		s.reserveOutl(src.FromPE, t, src.Val)
	}
}

// jump places j in the first cycle from j.Cycle that holds no jump and
// records a conditional jump's slot read. It is the only writer of
// Schedule.CCU; the placed jump is returned for its cycle.
func (s *scheduler) jump(j *CCUOp) *CCUOp {
	for s.sch.CCU[j.Cycle] != nil {
		j.Cycle++
	}
	if j.Slot != nil {
		j.Slot.Uses = append(j.Slot.Uses, j.Cycle)
	}
	s.sch.CCU[j.Cycle] = j
	return j
}

func (s *scheduler) ensureCycle(pe, cycle int) {
	s.busy[pe] = grown(s.busy[pe], cycle)
}

func (s *scheduler) peFree(pe, from, dur int) bool {
	for c := from; c < from+dur; c++ {
		s.ensureCycle(pe, c)
		if s.busy[pe][c] {
			return false
		}
	}
	return true
}

func (s *scheduler) markBusy(pe, from, dur int) {
	for c := from; c < from+dur; c++ {
		s.ensureCycle(pe, c)
		s.busy[pe][c] = true
	}
}

// earliestFree returns the first cycle >= from where pe is free for dur
// cycles.
func (s *scheduler) earliestFree(pe, from, dur int) int {
	c := from
	for !s.peFree(pe, c, dur) {
		c++
	}
	return c
}

// outlAvailable reports whether pe's routing output can carry v at cycle.
func (s *scheduler) outlAvailable(pe, cycle int, v *Value) bool {
	cur := at(s.outl[pe], cycle)
	return cur == nil || cur == v
}

func (s *scheduler) reserveOutl(pe, cycle int, v *Value) {
	s.outl[pe] = put(s.outl[pe], cycle, v)
}

func (s *scheduler) newValue(pe, def int) *Value {
	v := &Value{ID: len(s.sch.Values), PE: pe, Def: def, Addr: -1}
	s.sch.Values = append(s.sch.Values, v)
	return v
}

func (s *scheduler) newSlot() *Slot {
	sl := &Slot{ID: len(s.sch.Slots), Phys: -1}
	s.sch.Slots = append(s.sch.Slots, sl)
	return sl
}

// homeValue returns (creating on demand) the home slot of local l on the
// given preferred PE. Once assigned, the home never moves (§V-D: "a write
// must ultimately be done on its assigned PE").
func (s *scheduler) homeValue(l *cdfg.Local, preferPE int) *Value {
	st := s.local(l)
	if st.home != nil {
		return st.home
	}
	v := s.newValue(preferPE, -1)
	v.Local = l.Name
	v.IsHome = true
	v.Pinned = true
	st.home = v
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
