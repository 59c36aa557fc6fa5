package cdfg

import (
	"fmt"

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
		Locals:     map[string]*Local{},
	}
	for _, p := range k.Params {
		switch p.Kind {
		case ir.ScalarIn:
			g.Locals[p.Name] = &Local{Name: p.Name, LiveIn: true}
		case ir.ScalarInOut:
			g.Locals[p.Name] = &Local{Name: p.Name, LiveIn: true, LiveOut: true}
		case ir.ArrayRef:
			g.Arrays = append(g.Arrays, p.Name)
		}
	}
	b := &builder{g: g, opts: opts, kernel: k}
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
	read := map[string]bool{}
	for _, n := range g.AllNodes() {
		for _, a := range n.Args {
			if a.Kind == FromLocal {
				read[a.Local] = true
			}
		}
	}
	removed := map[*Node]bool{}
	for _, blk := range g.Root.Blocks() {
		kept := blk.Nodes[:0]
		for _, n := range blk.Nodes {
			if n.Kind == KPWrite && !read[n.Local] && (g.Locals[n.Local] == nil || !g.Locals[n.Local].LiveOut) {
				removed[n] = true
				continue
			}
			kept = append(kept, n)
		}
		blk.Nodes = kept
	}
	if len(removed) == 0 {
		return
	}
	strip := func(list []*Node) []*Node {
		kept := list[:0]
		for _, n := range list {
			if !removed[n] {
				kept = append(kept, n)
			}
		}
		return kept
	}
	for _, n := range g.AllNodes() {
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
	// defs maps a local to the pending pWRITEs a subsequent reader in
	// this block must wait for.
	defs map[string][]*Node
	// readers maps a local to the consumers that have read it since the
	// last pWRITE (write-after-read ordering).
	readers map[string][]*Node
	// lastStore and loadsSince order DMA accesses per array.
	lastStore  map[int]*Node
	loadsSince map[int][]*Node

	tempSeq int
}

func (b *builder) openBlock() {
	b.blk = &Block{ID: b.g.nextBlock}
	b.g.nextBlock++
	b.pred = nil
	b.defs = map[string][]*Node{}
	b.readers = map[string][]*Node{}
	b.lastStore = map[int]*Node{}
	b.loadsSince = map[int][]*Node{}
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

func (b *builder) newNode(kind Kind, op arch.OpCode, args ...Operand) *Node {
	n := &Node{ID: b.g.nextNode, Kind: kind, Op: op, Args: args, Pred: b.pred}
	b.g.nextNode++
	for _, a := range args {
		if a.Kind == FromLocal {
			// Read-after-write: wait for the pending writers.
			n.Prereqs = append(n.Prereqs, a.Version...)
			// Register for write-after-read ordering.
			b.readers[a.Local] = append(b.readers[a.Local], n)
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

func (b *builder) localOperand(name string) Operand {
	if _, ok := b.g.Locals[name]; !ok {
		b.g.Locals[name] = &Local{Name: name}
	}
	return Operand{
		Kind:    FromLocal,
		Local:   name,
		Version: append([]*Node(nil), b.defs[name]...),
	}
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
	return b.pwrite(name, val), nil
}

// pwrite emits a predicated write of val into the named local under the
// current path predicate.
func (b *builder) pwrite(name string, val Operand) *Node {
	if _, ok := b.g.Locals[name]; !ok {
		b.g.Locals[name] = &Local{Name: name}
	}
	n := b.newNode(KPWrite, arch.MOVE, val)
	n.Local = name
	// Write-after-write: all pending writers commit first.
	n.Prereqs = append(n.Prereqs, b.defs[name]...)
	// Write-after-read: earlier readers may still share the commit cycle.
	// A self-assignment (x = x) registers the write as a reader of its
	// own target; that edge must not become a self-dependency.
	for _, r := range b.readers[name] {
		if r != n {
			n.WeakPrereqs = append(n.WeakPrereqs, r)
		}
	}
	b.readers[name] = nil
	b.defs[name] = []*Node{n}
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
		return b.localOperand(e.Name), nil
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

// ArchOp returns the PE opcode a binary operator lowers to: an ALU op for
// arithmetic, a status-producing compare for relations. ok is false for
// the logical connectives, which lower to predicates instead.
func ArchOp(op ir.BinOp) (code arch.OpCode, ok bool) {
	if code, ok = binToArch[op]; ok {
		return code, true
	}
	code, ok = cmpToArch[op]
	return code, ok
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
	name := b.tempName()
	zero := b.pwrite(name, Operand{Kind: FromConst, Const: 0})
	cond, err := b.cond(e, false)
	if err != nil {
		return Operand{}, err
	}
	p := b.newPred(b.pred, cond, false)
	saved := b.pred
	b.pred = p
	one := b.pwrite(name, Operand{Kind: FromConst, Const: 1})
	b.pred = saved
	_ = zero
	return Operand{
		Kind:    FromLocal,
		Local:   name,
		Version: append([]*Node(nil), one),
	}, nil
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
func (b *builder) inlineIf(s *ir.If) error {
	cond, err := b.cond(s.Cond, false)
	if err != nil {
		return err
	}
	savedPred := b.pred
	baseDefs := copyDefs(b.defs)

	pThen := b.newPred(savedPred, cond, false)
	b.pred = pThen
	if err := b.inlineStmts(s.Then); err != nil {
		return err
	}
	thenDefs := b.defs
	b.defs = copyDefs(baseDefs)

	var elseDefs map[string][]*Node
	if len(s.Else) > 0 {
		pElse := b.newPred(savedPred, cond, true)
		b.pred = pElse
		if err := b.inlineStmts(s.Else); err != nil {
			return err
		}
		elseDefs = b.defs
		b.defs = copyDefs(baseDefs)
	}
	b.pred = savedPred

	// Join: subsequent readers must wait for every writer of either arm.
	merged := copyDefs(baseDefs)
	mergeDefs(merged, thenDefs, baseDefs)
	mergeDefs(merged, elseDefs, baseDefs)
	b.defs = merged
	return nil
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

func copyDefs(m map[string][]*Node) map[string][]*Node {
	c := make(map[string][]*Node, len(m))
	for k, v := range m {
		c[k] = append([]*Node(nil), v...)
	}
	return c
}

// mergeDefs adds the writers that arm introduced over base into dst.
func mergeDefs(dst, arm, base map[string][]*Node) {
	if arm == nil {
		return
	}
	for name, writers := range arm {
		baseSet := map[*Node]bool{}
		for _, w := range base[name] {
			baseSet[w] = true
		}
		for _, w := range writers {
			if !baseSet[w] {
				dst[name] = append(dst[name], w)
			}
		}
	}
}

func appendNode(dst []*Node, n *Node) []*Node {
	if n == nil {
		return dst
	}
	return append(dst, n)
}
