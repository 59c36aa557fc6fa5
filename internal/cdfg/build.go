package cdfg

import (
	"fmt"
	"slices"

	"cgra/internal/arch"
	"cgra/internal/ir"
)

// BuildOptions tunes graph construction.
type BuildOptions struct {
	// BranchAllIfs turns every conditional into a branched RIf region
	// instead of predicating dataflow-only conditionals. Used for
	// ablation studies; the paper's scheduler predicates whenever it can
	// (speculation increases parallelism, §V-B).
	BranchAllIfs bool
}

// Build compiles a kernel into its CDFG. The kernel is validated and For
// loops are lowered first.
func Build(k *ir.Kernel, opts BuildOptions) (*Graph, error) {
	if err := ir.Validate(k); err != nil {
		return nil, fmt.Errorf("cdfg: %v", err)
	}
	k = k.LowerFor()
	g := &Graph{
		KernelName: k.Name,
		byName:     make(map[string]*Local, 2*len(k.Params)+8),
	}
	b := &builder{g: g, opts: opts, kernel: k}
	for _, p := range k.Params {
		switch p.Kind {
		case ir.ScalarIn:
			b.newLocal(p.Name).LiveIn = true
		case ir.ScalarInOut:
			l := b.newLocal(p.Name)
			l.LiveIn, l.LiveOut = true, true
		case ir.ArrayRef:
			g.Arrays = append(g.Arrays, p.Name)
		}
	}
	b.lastStore = make([]*Node, len(g.Arrays))
	b.loadsSince = make([][]*Node, len(g.Arrays))
	root, err := b.seq(k.Body)
	if err != nil {
		return nil, err
	}
	g.Root = root
	annotate(root, nil, 0)
	g.removeDeadPWrites()
	return g, nil
}

// annotate sets Parent, Depth and each node's innermost loop.
func annotate(r *Region, parent *Region, depth int) {
	if r == nil {
		return
	}
	r.Parent = parent
	r.Depth = depth
	loop := r.EnclosingLoop()
	mark := func(blk *Block) {
		for _, n := range blk.Nodes {
			n.Loop = loop
		}
	}
	switch r.Kind {
	case RBlock:
		mark(r.Block)
	case RSeq:
		for _, c := range r.Children {
			annotate(c, r, depth)
		}
	case RLoop:
		// The loop's own header belongs to the loop.
		r.Depth = depth + 1
		for _, n := range r.Header.Nodes {
			n.Loop = r
		}
		annotate(r.Body, r, depth+1)
	case RIf:
		mark(r.CondBlock)
		annotate(r.Then, r, depth)
		annotate(r.Else, r, depth)
	}
}

// removeDeadPWrites drops pWRITEs to locals that are never read and are not
// live-out. (The value computation itself is kept; only the commit
// vanishes.) References to removed nodes are scrubbed from the ordering
// edges and version lists of the surviving nodes — a dangling dependency on
// a node that will never be scheduled would deadlock the scheduler.
func (g *Graph) removeDeadPWrites() {
	nodes := g.AllNodes()
	read := make([]bool, len(g.Locals))
	for _, n := range nodes {
		for _, a := range n.Args {
			if a.Kind == FromLocal {
				read[a.Local.ID] = true
			}
		}
	}
	var removed []bool // by Node.ID, nil while nothing is removed
	var buf [64]*Block
	for _, blk := range g.Root.AppendBlocks(buf[:0]) {
		kept := blk.Nodes[:0]
		for _, n := range blk.Nodes {
			if n.Kind == KPWrite && !read[n.Local.ID] && !n.Local.LiveOut {
				if removed == nil {
					removed = make([]bool, g.nextNode)
				}
				removed[n.ID] = true
				continue
			}
			kept = append(kept, n)
		}
		blk.Nodes = kept
	}
	if removed == nil {
		return
	}
	// Version lists are shared between operands: strip copies a list
	// before it drops anything from it.
	strip := func(list []*Node) []*Node {
		i := slices.IndexFunc(list, func(n *Node) bool { return removed[n.ID] })
		if i < 0 {
			return list
		}
		kept := append([]*Node(nil), list[:i]...)
		for _, n := range list[i+1:] {
			if !removed[n.ID] {
				kept = append(kept, n)
			}
		}
		return kept
	}
	for _, n := range nodes {
		if removed[n.ID] {
			continue
		}
		n.Prereqs = strip(n.Prereqs)
		n.WeakPrereqs = strip(n.WeakPrereqs)
		for i := range n.Args {
			if n.Args[i].Kind == FromLocal {
				n.Args[i].Version = strip(n.Args[i].Version)
			}
		}
	}
}

type builder struct {
	g      *Graph
	opts   BuildOptions
	kernel *ir.Kernel

	blk  *Block
	pred *Pred
	// locals[l.ID] is the block-local state of local l.
	locals []localBuild
	// lastStore and loadsSince order DMA accesses per array ID.
	lastStore  []*Node
	loadsSince [][]*Node

	// While an inline if's arm is compiled (armDepth > 0), defLog records
	// every defs entry it overwrites, so the arm can be undone; arms
	// stacks the final defs of the arms waiting to be joined.
	defLog   []localDefs
	arms     []localDefs
	armDepth int
	armSeq   int

	// Nodes, their operands, locals and one-writer defs lists are cut from
	// slabs: a graph lives and dies as a whole.
	nodeSlab   []Node
	argSlab    []Operand
	localSlab  []Local
	writerSlab []*Node

	tempSeq int
}

// localBuild is the builder's state of one local in the current block.
type localBuild struct {
	// defs lists the pending pWRITEs a subsequent reader must wait for.
	// Readers' Version lists share it, so it is replaced, never changed
	// in place.
	defs []*Node
	// readers lists the consumers that have read the local since its
	// last pWRITE (write-after-read ordering).
	readers []*Node
	// stamp is the armSeq of the last closeArm that saw the local.
	stamp int
}

// localDefs is one local's pending writers.
type localDefs struct {
	id   int
	defs []*Node
}

func (b *builder) openBlock() {
	b.blk = &Block{ID: b.g.nextBlock}
	b.g.nextBlock++
	b.pred = nil
	for i := range b.locals {
		l := &b.locals[i]
		l.defs, l.readers = nil, l.readers[:0]
	}
	clear(b.lastStore)
	for i := range b.loadsSince {
		b.loadsSince[i] = b.loadsSince[i][:0]
	}
}

// newLocal numbers a new local.
func (b *builder) newLocal(name string) *Local {
	l := slabNew(&b.localSlab, 16)
	*l = Local{ID: len(b.g.Locals), Name: name}
	b.g.Locals = append(b.g.Locals, l)
	b.g.byName[name] = l
	b.locals = append(b.locals, localBuild{})
	return l
}

// local returns the named local, numbering it on first sight.
func (b *builder) local(name string) *Local {
	if l := b.g.byName[name]; l != nil {
		return l
	}
	return b.newLocal(name)
}

// setDefs replaces local id's pending writers, logging the old list while
// an arm is compiled.
func (b *builder) setDefs(id int, defs []*Node) {
	if b.armDepth > 0 {
		b.defLog = append(b.defLog, localDefs{id, b.locals[id].defs})
	}
	b.locals[id].defs = defs
}

// oneWriter returns a defs list holding n alone.
func (b *builder) oneWriter(n *Node) []*Node {
	*slabNew(&b.writerSlab, 64) = n
	i := len(b.writerSlab) - 1
	return b.writerSlab[i : i+1 : i+1]
}

// slabNew returns a zeroed T cut from *slab, starting a new chunk (twice
// the last, at least 16 and at most limit) when the current one is full.
func slabNew[T any](slab *[]T, limit int) *T {
	if len(*slab) == cap(*slab) {
		*slab = make([]T, 0, min(max(2*cap(*slab), 16), limit))
	}
	*slab = (*slab)[:len(*slab)+1]
	return &(*slab)[len(*slab)-1]
}

// closeBlock wraps the current block into an RBlock region; empty blocks
// yield nil.
func (b *builder) closeBlock() *Region {
	blk := b.blk
	b.blk = nil
	if blk == nil || len(blk.Nodes) == 0 {
		return nil
	}
	r := &Region{ID: b.g.nextRegion, Kind: RBlock, Block: blk}
	b.g.nextRegion++
	return r
}

// closeBlockRaw returns the current (possibly empty) block itself, for loop
// headers and branch condition blocks.
func (b *builder) closeBlockRaw() *Block {
	blk := b.blk
	b.blk = nil
	return blk
}

func (b *builder) newRegion(kind RegionKind) *Region {
	r := &Region{ID: b.g.nextRegion, Kind: kind}
	b.g.nextRegion++
	return r
}

// newArgs copies a node's operands into the operand slab, so the caller's
// variadic list stays on its stack. The copy's capacity is clipped: an
// append to one node's operands cannot overwrite the next node's. Chunks
// hold 32 operands, a 1792-byte size class; chunks doubling from a smaller
// first one, as nodeSlab's do, left as much of the last one unused.
func (b *builder) newArgs(args []Operand) []Operand {
	if len(b.argSlab)+len(args) > cap(b.argSlab) {
		b.argSlab = make([]Operand, 0, 32)
	}
	i := len(b.argSlab)
	b.argSlab = append(b.argSlab, args...)
	return b.argSlab[i:len(b.argSlab):len(b.argSlab)]
}

func (b *builder) newNode(kind Kind, op arch.OpCode, args ...Operand) *Node {
	n := slabNew(&b.nodeSlab, 128)
	*n = Node{ID: b.g.nextNode, Kind: kind, Op: op, Args: b.newArgs(args), Pred: b.pred}
	b.g.nextNode++
	for _, a := range args {
		if a.Kind == FromLocal {
			// Read-after-write: wait for the pending writers.
			n.Prereqs = append(n.Prereqs, a.Version...)
			// Register for write-after-read ordering.
			lb := &b.locals[a.Local.ID]
			lb.readers = append(lb.readers, n)
		}
	}
	b.blk.Nodes = append(b.blk.Nodes, n)
	return n
}

func (b *builder) newPred(parent *Pred, cond *CondExpr, negate bool) *Pred {
	p := &Pred{ID: len(b.g.Preds), Parent: parent, Cond: cond, Negate: negate}
	b.g.Preds = append(b.g.Preds, p)
	return p
}

// localOperand reads local l after its pending writers.
func (b *builder) localOperand(l *Local) Operand {
	return Operand{Kind: FromLocal, Local: l, Version: slices.Clip(b.locals[l.ID].defs)}
}

func (b *builder) tempName() string {
	b.tempSeq++
	return fmt.Sprintf("$t%d", b.tempSeq)
}

// seq compiles a statement list into a region.
func (b *builder) seq(stmts []ir.Stmt) (*Region, error) {
	var children []*Region
	b.openBlock()
	flush := func() {
		if r := b.closeBlock(); r != nil {
			children = append(children, r)
		}
		b.openBlock()
	}
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Assign:
			if _, err := b.assign(s.Name, s.Value); err != nil {
				return nil, err
			}
		case *ir.Store:
			if err := b.store(s); err != nil {
				return nil, err
			}
		case *ir.If:
			if b.opts.BranchAllIfs || containsLoop(s.Then) || containsLoop(s.Else) {
				flush()
				r, err := b.branchedIf(s)
				if err != nil {
					return nil, err
				}
				children = append(children, r)
				b.openBlock()
			} else if err := b.inlineIf(s); err != nil {
				return nil, err
			}
		case *ir.While:
			flush()
			r, err := b.loop(s)
			if err != nil {
				return nil, err
			}
			children = append(children, r)
			b.openBlock()
		default:
			return nil, fmt.Errorf("cdfg: unsupported statement %T", s)
		}
	}
	if r := b.closeBlock(); r != nil {
		children = append(children, r)
	}
	switch len(children) {
	case 0:
		// An empty region: represent as an empty block.
		b.openBlock()
		blk := b.closeBlockRaw()
		r := b.newRegion(RBlock)
		r.Block = blk
		return r, nil
	case 1:
		return children[0], nil
	default:
		r := b.newRegion(RSeq)
		r.Children = children
		return r, nil
	}
}

func containsLoop(stmts []ir.Stmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.While, *ir.For:
			return true
		case *ir.If:
			if containsLoop(s.Then) || containsLoop(s.Else) {
				return true
			}
		}
	}
	return false
}

// assign compiles name = value into a pWRITE and returns the pWRITE node.
func (b *builder) assign(name string, value ir.Expr) (*Node, error) {
	if b.kernel.IsArray(name) {
		return nil, fmt.Errorf("cdfg: cannot assign to array %q", name)
	}
	val, err := b.expr(value)
	if err != nil {
		return nil, err
	}
	return b.pwrite(b.local(name), val), nil
}

// pwrite emits a predicated write of val into local l under the current
// path predicate.
func (b *builder) pwrite(l *Local, val Operand) *Node {
	n := b.newNode(KPWrite, arch.MOVE, val)
	n.Local = l
	// Write-after-write: all pending writers commit first.
	lb := &b.locals[l.ID]
	n.Prereqs = append(n.Prereqs, lb.defs...)
	// Write-after-read: earlier readers may still share the commit cycle.
	// A self-assignment (x = x) registers the write as a reader of its
	// own target; that edge must not become a self-dependency.
	for _, r := range lb.readers {
		if r != n {
			n.WeakPrereqs = append(n.WeakPrereqs, r)
		}
	}
	lb.readers = lb.readers[:0]
	b.setDefs(l.ID, b.oneWriter(n))
	if n.Pred == nil && val.Kind == FromNode {
		n.AliasOf = val.Node
	}
	return n
}

func (b *builder) store(s *ir.Store) error {
	arr := b.g.ArrayID(s.Array)
	if arr < 0 {
		return fmt.Errorf("cdfg: store to unknown array %q", s.Array)
	}
	idx, err := b.expr(s.Index)
	if err != nil {
		return err
	}
	val, err := b.expr(s.Value)
	if err != nil {
		return err
	}
	n := b.newNode(KOp, arch.STORE, idx, val)
	n.Array = arr
	n.Prereqs = appendNode(n.Prereqs, b.lastStore[arr])
	n.Prereqs = append(n.Prereqs, b.loadsSince[arr]...)
	b.lastStore[arr] = n
	b.loadsSince[arr] = nil
	return nil
}

// expr compiles an expression to an operand.
func (b *builder) expr(e ir.Expr) (Operand, error) {
	switch e := e.(type) {
	case *ir.Const:
		return Operand{Kind: FromConst, Const: e.Value}, nil
	case *ir.VarRef:
		return b.localOperand(b.local(e.Name)), nil
	case *ir.Load:
		arr := b.g.ArrayID(e.Array)
		if arr < 0 {
			return Operand{}, fmt.Errorf("cdfg: load from unknown array %q", e.Array)
		}
		idx, err := b.expr(e.Index)
		if err != nil {
			return Operand{}, err
		}
		n := b.newNode(KOp, arch.LOAD, idx)
		n.Array = arr
		n.Prereqs = appendNode(n.Prereqs, b.lastStore[arr])
		b.loadsSince[arr] = append(b.loadsSince[arr], n)
		return Operand{Kind: FromNode, Node: n}, nil
	case *ir.Un:
		switch e.Op {
		case ir.OpNeg:
			x, err := b.expr(e.X)
			if err != nil {
				return Operand{}, err
			}
			return Operand{Kind: FromNode, Node: b.newNode(KOp, arch.INEG, x)}, nil
		case ir.OpNot:
			x, err := b.expr(e.X)
			if err != nil {
				return Operand{}, err
			}
			return Operand{Kind: FromNode, Node: b.newNode(KOp, arch.INOT, x)}, nil
		case ir.OpLNot:
			return b.materializeBool(e)
		default:
			return Operand{}, fmt.Errorf("cdfg: unknown unary op %v", e.Op)
		}
	case *ir.Bin:
		if e.Op.IsCompare() || e.Op.IsLogical() {
			return b.materializeBool(e)
		}
		op, ok := binToArch[e.Op]
		if !ok {
			return Operand{}, fmt.Errorf("cdfg: unsupported binary op %v", e.Op)
		}
		x, err := b.expr(e.X)
		if err != nil {
			return Operand{}, err
		}
		y, err := b.expr(e.Y)
		if err != nil {
			return Operand{}, err
		}
		return Operand{Kind: FromNode, Node: b.newNode(KOp, op, x, y)}, nil
	default:
		return Operand{}, fmt.Errorf("cdfg: unknown expression type %T", e)
	}
}

var binToArch = map[ir.BinOp]arch.OpCode{
	ir.OpAdd: arch.IADD, ir.OpSub: arch.ISUB, ir.OpMul: arch.IMUL,
	ir.OpAnd: arch.IAND, ir.OpOr: arch.IOR, ir.OpXor: arch.IXOR,
	ir.OpShl: arch.ISHL, ir.OpShr: arch.ISHR, ir.OpShrU: arch.IUSHR,
}

var cmpToArch = map[ir.BinOp]arch.OpCode{
	ir.OpLt: arch.IFLT, ir.OpLe: arch.IFLE, ir.OpGt: arch.IFGT,
	ir.OpGe: arch.IFGE, ir.OpEq: arch.IFEQ, ir.OpNe: arch.IFNE,
}

var cmpNegate = map[ir.BinOp]ir.BinOp{
	ir.OpLt: ir.OpGe, ir.OpGe: ir.OpLt,
	ir.OpLe: ir.OpGt, ir.OpGt: ir.OpLe,
	ir.OpEq: ir.OpNe, ir.OpNe: ir.OpEq,
}

// materializeBool lowers a boolean expression in value context: the result
// slot is seeded with 0 and a predicated write commits 1 when the condition
// holds. The machine has no compare-to-register operation — compare results
// are status bits routed to the C-Box (§IV-A1) — so booleans-as-values go
// through a predicate exactly like a tiny if/else.
func (b *builder) materializeBool(e ir.Expr) (Operand, error) {
	l := b.newLocal(b.tempName())
	b.pwrite(l, Operand{Kind: FromConst, Const: 0})
	cond, err := b.cond(e, false)
	if err != nil {
		return Operand{}, err
	}
	p := b.newPred(b.pred, cond, false)
	saved := b.pred
	b.pred = p
	b.pwrite(l, Operand{Kind: FromConst, Const: 1})
	b.pred = saved
	// The reader waits for the predicated write of 1 alone.
	return b.localOperand(l), nil
}

// cond compiles a branch/loop condition into a CondExpr over compare nodes.
// neg requests the negated condition; negation is pushed to the leaves with
// De Morgan so the C-Box never needs a distinct NOT pass. Memory loads on
// the right-hand side of && and || are guarded with a predicate so
// short-circuit semantics cannot fault (DMA is always predicated, §V-D).
func (b *builder) cond(e ir.Expr, neg bool) (*CondExpr, error) {
	switch e := e.(type) {
	case *ir.Bin:
		switch {
		case e.Op.IsCompare():
			op := e.Op
			if neg {
				op = cmpNegate[op]
			}
			x, err := b.expr(e.X)
			if err != nil {
				return nil, err
			}
			y, err := b.expr(e.Y)
			if err != nil {
				return nil, err
			}
			n := b.newNode(KOp, cmpToArch[op], x, y)
			return &CondExpr{Op: CondLeaf, Cmp: n}, nil
		case e.Op.IsLogical():
			// a && b  -> And(a, b), b guarded under a
			// a || b  -> Or(a, b),  b guarded under !a
			// Negations swap the connective (De Morgan).
			isAnd := e.Op == ir.OpLAnd
			cx, err := b.cond(e.X, neg)
			if err != nil {
				return nil, err
			}
			// Guard predicate for evaluating the right-hand side:
			// for &&, b only evaluates when a is true; for ||, when
			// a is false. cx already includes any outer negation, so
			// recover the guard polarity relative to cx.
			guardNeg := !isAnd // || evaluates b when a false
			if neg {
				// cx is the negation of a; the guard polarity
				// must still track the original a.
				guardNeg = !guardNeg
			}
			guard := b.newPred(b.pred, cx, guardNeg)
			saved := b.pred
			b.pred = guard
			cy, err := b.cond(e.Y, neg)
			b.pred = saved
			if err != nil {
				return nil, err
			}
			op := CondAnd
			if isAnd != !neg { // And stays And unless negated
				op = CondOr
			}
			return &CondExpr{Op: op, X: cx, Y: cy}, nil
		default:
			// Truthiness of an arithmetic expression: expr != 0.
			return b.truthiness(e, neg)
		}
	case *ir.Un:
		if e.Op == ir.OpLNot {
			return b.cond(e.X, !neg)
		}
		return b.truthiness(e, neg)
	default:
		return b.truthiness(e, neg)
	}
}

func (b *builder) truthiness(e ir.Expr, neg bool) (*CondExpr, error) {
	x, err := b.expr(e)
	if err != nil {
		return nil, err
	}
	op := arch.IFNE
	if neg {
		op = arch.IFEQ
	}
	n := b.newNode(KOp, op, x, Operand{Kind: FromConst, Const: 0})
	return &CondExpr{Op: CondLeaf, Cmp: n}, nil
}

// inlineIf predicates a dataflow-only conditional into the current block.
// Each arm starts from the pending writers before the if; afterwards a
// reader waits for the writers of both arms.
func (b *builder) inlineIf(s *ir.If) error {
	cond, err := b.cond(s.Cond, false)
	if err != nil {
		return err
	}
	savedPred := b.pred

	thenArm := len(b.arms)
	mark := b.openArm()
	b.pred = b.newPred(savedPred, cond, false)
	if err := b.inlineStmts(s.Then); err != nil {
		return err
	}
	b.closeArm(mark)

	elseArm := len(b.arms)
	if len(s.Else) > 0 {
		mark := b.openArm()
		b.pred = b.newPred(savedPred, cond, true)
		if err := b.inlineStmts(s.Else); err != nil {
			return err
		}
		b.closeArm(mark)
	}
	b.pred = savedPred
	b.join(b.arms[thenArm:elseArm], b.arms[elseArm:])
	b.arms = b.arms[:thenArm]
	return nil
}

// openArm starts logging defs changes and returns the log position.
func (b *builder) openArm() int {
	b.armDepth++
	return len(b.defLog)
}

// closeArm pushes the arm's final writers of every local it changed onto
// b.arms and restores defs to what they were at mark.
func (b *builder) closeArm(mark int) {
	b.armSeq++
	for i := len(b.defLog) - 1; i >= mark; i-- {
		e := b.defLog[i]
		lb := &b.locals[e.id]
		if lb.stamp != b.armSeq {
			lb.stamp = b.armSeq
			b.arms = append(b.arms, localDefs{e.id, lb.defs})
		}
		lb.defs = e.defs
	}
	b.defLog = b.defLog[:mark]
	b.armDepth--
}

// join adds the writers each arm introduced to defs: the writers before
// the if, then the then arm's new ones, then the else arm's.
func (b *builder) join(thenArm, elseArm []localDefs) {
	for _, t := range thenArm {
		base := b.locals[t.id].defs
		merged := appendNewWriters(base[:len(base):len(base)], t.defs, base)
		for _, e := range elseArm {
			if e.id == t.id {
				merged = appendNewWriters(merged, e.defs, base)
				break
			}
		}
		if len(merged) > len(base) {
			b.setDefs(t.id, merged)
		}
	}
	for _, e := range elseArm {
		if slices.ContainsFunc(thenArm, func(t localDefs) bool { return t.id == e.id }) {
			continue
		}
		base := b.locals[e.id].defs
		if merged := appendNewWriters(base[:len(base):len(base)], e.defs, base); len(merged) > len(base) {
			b.setDefs(e.id, merged)
		}
	}
}

// appendNewWriters appends to dst the writers of arm that base lacks.
func appendNewWriters(dst, arm, base []*Node) []*Node {
	for _, w := range arm {
		if !slices.Contains(base, w) {
			dst = append(dst, w)
		}
	}
	return dst
}

// inlineStmts compiles statements that are guaranteed loop-free into the
// current block under the current predicate.
func (b *builder) inlineStmts(stmts []ir.Stmt) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Assign:
			if _, err := b.assign(s.Name, s.Value); err != nil {
				return err
			}
		case *ir.Store:
			if err := b.store(s); err != nil {
				return err
			}
		case *ir.If:
			if err := b.inlineIf(s); err != nil {
				return err
			}
		default:
			return fmt.Errorf("cdfg: statement %T cannot be predicated (internal error)", s)
		}
	}
	return nil
}

// branchedIf builds an RIf region for conditionals containing loops.
func (b *builder) branchedIf(s *ir.If) (*Region, error) {
	b.openBlock()
	cond, err := b.cond(s.Cond, false)
	if err != nil {
		return nil, err
	}
	b.blk.Cond = cond
	condBlock := b.closeBlockRaw()

	thenR, err := b.seq(s.Then)
	if err != nil {
		return nil, err
	}
	var elseR *Region
	if len(s.Else) > 0 {
		elseR, err = b.seq(s.Else)
		if err != nil {
			return nil, err
		}
	}
	r := b.newRegion(RIf)
	r.CondBlock = condBlock
	r.Then = thenR
	r.Else = elseR
	return r, nil
}

// loop builds an RLoop region for a while loop.
func (b *builder) loop(s *ir.While) (*Region, error) {
	b.openBlock()
	cond, err := b.cond(s.Cond, false)
	if err != nil {
		return nil, err
	}
	b.blk.Cond = cond
	header := b.closeBlockRaw()

	body, err := b.seq(s.Body)
	if err != nil {
		return nil, err
	}
	r := b.newRegion(RLoop)
	r.Header = header
	r.Body = body
	return r, nil
}

func appendNode(dst []*Node, n *Node) []*Node {
	if n == nil {
		return dst
	}
	return append(dst, n)
}
