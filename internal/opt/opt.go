// Package opt implements the optional IR-level optimizations of the paper's
// synthesis flow (Fig. 1): partial loop unrolling and common subexpression
// elimination, plus constant folding. All passes are semantics-preserving
// source-to-source transforms on the kernel IR.
package opt

import (
	"fmt"

	"cgra/internal/ir"
	"cgra/internal/obs"
)

// Options selects the passes to run.
type Options struct {
	// UnrollFactor partially unrolls innermost loops: a factor k rewrites
	// while(c){B} into while(c){B; if(c){B; if(c){...}}} with k copies of
	// the body. The guarded copies predicate into the same block, raising
	// ILP exactly like the paper's "maximum unroll factor of 2 for inner
	// loops" (§VI-B). 0 and 1 mean no unrolling.
	UnrollFactor int
	// CSE enables statement-level value numbering: a right-hand side
	// equal to one already held in a live variable is replaced by that
	// variable.
	CSE bool
	// ConstFold folds constant subexpressions.
	ConstFold bool
}

// Phase is one optimization pass of the flow.
type Phase struct {
	Name string
	Run  func(*ir.Kernel) *ir.Kernel
}

// Phases lists the passes Apply runs for the given options, in order.
func Phases(o Options) []Phase {
	var out []Phase
	if o.ConstFold {
		out = append(out, Phase{"constfold", FoldConstants})
	}
	if o.UnrollFactor > 1 {
		out = append(out, Phase{"unroll", func(k *ir.Kernel) *ir.Kernel {
			return Unroll(k, o.UnrollFactor)
		}})
	}
	if o.CSE {
		out = append(out, Phase{"cse", CSE})
	}
	return out
}

// Apply runs the selected passes and returns a new kernel.
func Apply(k *ir.Kernel, o Options) (*ir.Kernel, error) {
	return ApplySpan(k, o, nil)
}

// ApplySpan runs the selected passes, recording each pass as a child of
// span (nil span = no instrumentation).
func ApplySpan(k *ir.Kernel, o Options, span *obs.Span) (*ir.Kernel, error) {
	out := k
	for _, p := range Phases(o) {
		sp := span.StartChild(p.Name)
		out = p.Run(out)
		sp.Set("stmts", int64(countStmts(out.Body)))
		sp.Finish()
	}
	if err := ir.Validate(out); err != nil {
		return nil, fmt.Errorf("opt: transformed kernel invalid: %v", err)
	}
	return out, nil
}

// countStmts counts statements recursively (a phase-output size metric).
func countStmts(stmts []ir.Stmt) int {
	n := 0
	for _, s := range stmts {
		n++
		switch s := s.(type) {
		case *ir.If:
			n += countStmts(s.Then) + countStmts(s.Else)
		case *ir.While:
			n += countStmts(s.Body)
		case *ir.For:
			n += countStmts(s.Body)
		}
	}
	return n
}

// --- constant folding ---

// FoldConstants folds constant subexpressions throughout the kernel.
func FoldConstants(k *ir.Kernel) *ir.Kernel {
	return &ir.Kernel{Name: k.Name, Params: k.Params, Body: foldStmts(k.Body)}
}

func foldStmts(stmts []ir.Stmt) []ir.Stmt {
	out := make([]ir.Stmt, 0, len(stmts))
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Assign:
			out = append(out, &ir.Assign{Name: s.Name, Value: foldExpr(s.Value)})
		case *ir.Store:
			out = append(out, &ir.Store{Array: s.Array, Index: foldExpr(s.Index), Value: foldExpr(s.Value)})
		case *ir.If:
			out = append(out, &ir.If{Cond: foldExpr(s.Cond), Then: foldStmts(s.Then), Else: foldStmts(s.Else)})
		case *ir.While:
			out = append(out, &ir.While{Cond: foldExpr(s.Cond), Body: foldStmts(s.Body)})
		case *ir.For:
			f := &ir.For{Cond: foldExpr(s.Cond), Body: foldStmts(s.Body)}
			if s.Init != nil {
				f.Init = &ir.Assign{Name: s.Init.Name, Value: foldExpr(s.Init.Value)}
			}
			if s.Post != nil {
				f.Post = &ir.Assign{Name: s.Post.Name, Value: foldExpr(s.Post.Value)}
			}
			out = append(out, f)
		default:
			out = append(out, s)
		}
	}
	return out
}

func foldExpr(e ir.Expr) ir.Expr {
	switch e := e.(type) {
	case *ir.Bin:
		x, y := foldExpr(e.X), foldExpr(e.Y)
		cx, okx := x.(*ir.Const)
		cy, oky := y.(*ir.Const)
		if okx && oky && !e.Op.IsLogical() {
			if v, err := ir.EvalBin(e.Op, cx.Value, cy.Value, nil); err == nil {
				return &ir.Const{Value: v}
			}
		}
		if okx && oky && e.Op.IsLogical() {
			bx, by := cx.Value != 0, cy.Value != 0
			var r bool
			if e.Op == ir.OpLAnd {
				r = bx && by
			} else {
				r = bx || by
			}
			if r {
				return &ir.Const{Value: 1}
			}
			return &ir.Const{Value: 0}
		}
		// Identity simplifications.
		if oky && !okx {
			switch {
			case e.Op == ir.OpAdd && cy.Value == 0,
				e.Op == ir.OpSub && cy.Value == 0,
				e.Op == ir.OpMul && cy.Value == 1,
				e.Op == ir.OpShl && cy.Value == 0,
				e.Op == ir.OpShr && cy.Value == 0,
				e.Op == ir.OpShrU && cy.Value == 0,
				e.Op == ir.OpOr && cy.Value == 0,
				e.Op == ir.OpXor && cy.Value == 0:
				return x
			case e.Op == ir.OpMul && cy.Value == 0,
				e.Op == ir.OpAnd && cy.Value == 0:
				return &ir.Const{Value: 0}
			}
		}
		if okx && !oky {
			switch {
			case e.Op == ir.OpAdd && cx.Value == 0,
				e.Op == ir.OpMul && cx.Value == 1,
				e.Op == ir.OpOr && cx.Value == 0,
				e.Op == ir.OpXor && cx.Value == 0:
				return y
			case e.Op == ir.OpMul && cx.Value == 0,
				e.Op == ir.OpAnd && cx.Value == 0:
				return &ir.Const{Value: 0}
			}
		}
		return &ir.Bin{Op: e.Op, X: x, Y: y}
	case *ir.Un:
		x := foldExpr(e.X)
		if c, ok := x.(*ir.Const); ok {
			switch e.Op {
			case ir.OpNeg:
				return &ir.Const{Value: -c.Value}
			case ir.OpNot:
				return &ir.Const{Value: ^c.Value}
			case ir.OpLNot:
				if c.Value == 0 {
					return &ir.Const{Value: 1}
				}
				return &ir.Const{Value: 0}
			}
		}
		return &ir.Un{Op: e.Op, X: x}
	case *ir.Load:
		return &ir.Load{Array: e.Array, Index: foldExpr(e.Index)}
	default:
		return e
	}
}

// --- partial loop unrolling ---

// Unroll partially unrolls innermost loops by the given factor: the body is
// followed by factor-1 copies, each guarded by the (re-evaluated) loop
// condition. The transform is valid for arbitrary while loops:
// while(c){B} == while(c){B; if(c){B}}. The guarded copies are loop-free,
// so the CDFG builder predicates them into the same block, enlarging the
// window for the list scheduler.
func Unroll(k *ir.Kernel, factor int) *ir.Kernel {
	lowered := k.LowerFor()
	return &ir.Kernel{Name: k.Name, Params: k.Params, Body: unrollStmts(lowered.Body, factor)}
}

func unrollStmts(stmts []ir.Stmt, factor int) []ir.Stmt {
	out := make([]ir.Stmt, 0, len(stmts))
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.If:
			out = append(out, &ir.If{Cond: s.Cond, Then: unrollStmts(s.Then, factor), Else: unrollStmts(s.Else, factor)})
		case *ir.While:
			if isInnermost(s.Body) {
				out = append(out, &ir.While{Cond: s.Cond, Body: buildUnrolled(s.Body, s.Cond, factor)})
			} else {
				out = append(out, &ir.While{Cond: s.Cond, Body: unrollStmts(s.Body, factor)})
			}
		default:
			out = append(out, s)
		}
	}
	return out
}

// buildUnrolled produces B; if(c){B; if(c){ ... }} with `factor` copies.
func buildUnrolled(body []ir.Stmt, cond ir.Expr, factor int) []ir.Stmt {
	result := append([]ir.Stmt(nil), body...)
	tail := []ir.Stmt(nil)
	for i := factor - 1; i >= 1; i-- {
		inner := append(append([]ir.Stmt(nil), body...), tail...)
		tail = []ir.Stmt{&ir.If{Cond: cond, Then: inner}}
	}
	return append(result, tail...)
}

func isInnermost(stmts []ir.Stmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.While, *ir.For:
			return false
		case *ir.If:
			if !isInnermost(s.Then) || !isInnermost(s.Else) {
				return false
			}
		}
	}
	return true
}

// --- common subexpression elimination ---

// CSE performs statement-level value numbering: when an assignment's
// right-hand side is structurally identical to one previously computed into
// a still-valid variable, the recomputation is replaced by a variable read
// (the paper's optional "Common Subexpression elim." step, Fig. 1).
// Expressions containing array loads are never reused (stores may have
// intervened), and control-flow boundaries clear the table conservatively.
func CSE(k *ir.Kernel) *ir.Kernel {
	c := &cseState{ids: map[string]int32{}, exprs: map[cseKey]int32{}}
	return &ir.Kernel{Name: k.Name, Params: k.Params, Body: c.stmts(k.Body)}
}

// cseKey is the structure of one pure expression: a constant, a variable
// number, or an operator over its operands' expression numbers. Equal keys
// mean structurally equal expressions.
type cseKey struct {
	kind uint8 // keyConst, keyVar, keyBin or keyUn
	op   uint8 // the ir.BinOp or ir.UnOp of keyBin and keyUn
	x, y int32 // the constant, the variable, or the operands
}

const (
	keyConst uint8 = iota
	keyVar
	keyBin
	keyUn
)

// cseState numbers every variable and every pure expression of the kernel
// once (hash-consing), and keeps the table of available expressions as a
// slice indexed by expression number. A branch arm or loop body edits the
// table in place and logs what it overwrote; the table is restored from the
// log when the arm or body ends.
type cseState struct {
	ids   map[string]int32 // variable name -> number
	vars  []cseVar         // by variable number
	exprs map[cseKey]int32 // structure -> expression number
	// avail[e] holds expression e's holder: the variable number plus one,
	// 0 when no variable holds it. An entry stamped with an epoch below
	// floor was made outside the loop body being rewritten and is not
	// visible inside it.
	avail []availEntry
	epoch int32
	floor int32
	// log records overwritten avail entries while depth > 0.
	log   []availUndo
	depth int
}

// cseVar is one variable: its name, the expressions that read it and the
// expressions it has been made the holder of. Invalidating the variable
// visits only those.
type cseVar struct {
	name       string
	uses, held []int32
}

type availEntry struct{ holder, epoch int32 }

type availUndo struct {
	expr int32
	prev availEntry
}

func (c *cseState) stmts(stmts []ir.Stmt) []ir.Stmt {
	out := make([]ir.Stmt, 0, len(stmts))
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Assign:
			x := c.varID(s.Name)
			val := s.Value
			key, pure := c.number(val)
			if pure {
				if h := c.holder(key); h >= 0 && h != x {
					val = &ir.VarRef{Name: c.vars[h].name}
				}
			}
			c.invalidate(x)
			out = append(out, &ir.Assign{Name: s.Name, Value: val})
			if pure && !mentions(val, s.Name) {
				c.set(key, availEntry{holder: x + 1, epoch: c.epoch})
				c.vars[x].held = append(c.vars[x].held, key)
			}
		case *ir.Store:
			out = append(out, s)
		case *ir.If:
			// Each arm starts from the table before the if; afterwards
			// drop entries whose holder or operands may have changed.
			mark := c.open()
			thenOut := c.stmts(s.Then)
			c.restore(mark)
			mark = c.open()
			elseOut := c.stmts(s.Else)
			c.restore(mark)
			c.invalidateAssigned(s.Then)
			c.invalidateAssigned(s.Else)
			out = append(out, &ir.If{Cond: s.Cond, Then: thenOut, Else: elseOut})
		case *ir.While:
			// The loop body may invalidate values before the
			// condition re-evaluates: clear around it.
			bodyOut := c.loopBody(s.Body)
			c.invalidateAssigned(s.Body)
			out = append(out, &ir.While{Cond: s.Cond, Body: bodyOut})
		case *ir.For:
			bodyOut := c.loopBody(s.Body)
			c.invalidateAssigned(s.Body)
			if s.Init != nil {
				c.invalidate(c.varID(s.Init.Name))
			}
			if s.Post != nil {
				c.invalidate(c.varID(s.Post.Name))
			}
			out = append(out, &ir.For{Init: s.Init, Cond: s.Cond, Post: s.Post, Body: bodyOut})
		default:
			out = append(out, s)
		}
	}
	return out
}

// loopBody rewrites a loop body against an empty table: a new epoch hides
// every entry made before it, and the log restores what the body overwrote.
func (c *cseState) loopBody(body []ir.Stmt) []ir.Stmt {
	floor := c.floor
	c.epoch++
	c.floor = c.epoch
	mark := c.open()
	out := c.stmts(body)
	c.restore(mark)
	c.floor = floor
	return out
}

// open starts logging table edits and returns the log position to restore.
func (c *cseState) open() int {
	c.depth++
	return len(c.log)
}

// restore undoes every table edit logged since mark.
func (c *cseState) restore(mark int) {
	for i := len(c.log) - 1; i >= mark; i-- {
		c.avail[c.log[i].expr] = c.log[i].prev
	}
	c.log = c.log[:mark]
	c.depth--
}

func (c *cseState) set(e int32, a availEntry) {
	if c.depth > 0 {
		c.log = append(c.log, availUndo{e, c.avail[e]})
	}
	c.avail[e] = a
}

// holder returns the number of the variable holding expression e, or -1.
func (c *cseState) holder(e int32) int32 {
	if a := c.avail[e]; a.holder > 0 && a.epoch >= c.floor {
		return a.holder - 1
	}
	return -1
}

// invalidate drops entries computed from or held in variable x.
func (c *cseState) invalidate(x int32) {
	for _, e := range c.vars[x].uses {
		if c.avail[e].holder > 0 {
			c.set(e, availEntry{})
		}
	}
	for _, e := range c.vars[x].held {
		if c.avail[e].holder == x+1 {
			c.set(e, availEntry{})
		}
	}
}

// invalidateAssigned invalidates every variable stmts may assign.
func (c *cseState) invalidateAssigned(stmts []ir.Stmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Assign:
			c.invalidate(c.varID(s.Name))
		case *ir.If:
			c.invalidateAssigned(s.Then)
			c.invalidateAssigned(s.Else)
		case *ir.While:
			c.invalidateAssigned(s.Body)
		case *ir.For:
			if s.Init != nil {
				c.invalidate(c.varID(s.Init.Name))
			}
			if s.Post != nil {
				c.invalidate(c.varID(s.Post.Name))
			}
			c.invalidateAssigned(s.Body)
		}
	}
}

// varID returns the number of the named variable, assigning the next one on
// first sight.
func (c *cseState) varID(name string) int32 {
	x, ok := c.ids[name]
	if !ok {
		x = int32(len(c.vars))
		c.ids[name] = x
		c.vars = append(c.vars, cseVar{name: name})
	}
	return x
}

// number returns the expression number of a pure expression (no loads, no
// short-circuit connectives) and whether the expression is pure.
func (c *cseState) number(e ir.Expr) (int32, bool) {
	var k cseKey
	switch e := e.(type) {
	case *ir.Const:
		k = cseKey{kind: keyConst, x: e.Value}
	case *ir.VarRef:
		k = cseKey{kind: keyVar, x: c.varID(e.Name)}
	case *ir.Bin:
		if e.Op.IsLogical() {
			return 0, false
		}
		x, ok := c.number(e.X)
		if !ok {
			return 0, false
		}
		y, ok := c.number(e.Y)
		if !ok {
			return 0, false
		}
		k = cseKey{kind: keyBin, op: uint8(e.Op), x: x, y: y}
	case *ir.Un:
		x, ok := c.number(e.X)
		if !ok {
			return 0, false
		}
		k = cseKey{kind: keyUn, op: uint8(e.Op), x: x}
	default:
		return 0, false
	}
	n, ok := c.exprs[k]
	if !ok {
		n = int32(len(c.avail))
		c.exprs[k] = n
		c.avail = append(c.avail, availEntry{})
		c.indexUses(e, n)
	}
	return n, true
}

// indexUses adds expression n to the use list of every variable e reads.
func (c *cseState) indexUses(e ir.Expr, n int32) {
	switch e := e.(type) {
	case *ir.VarRef:
		v := &c.vars[c.ids[e.Name]]
		if len(v.uses) == 0 || v.uses[len(v.uses)-1] != n {
			v.uses = append(v.uses, n)
		}
	case *ir.Bin:
		c.indexUses(e.X, n)
		c.indexUses(e.Y, n)
	case *ir.Un:
		c.indexUses(e.X, n)
	}
}

func mentions(e ir.Expr, name string) bool {
	switch e := e.(type) {
	case *ir.VarRef:
		return e.Name == name
	case *ir.Bin:
		return mentions(e.X, name) || mentions(e.Y, name)
	case *ir.Un:
		return mentions(e.X, name)
	case *ir.Load:
		return mentions(e.Index, name)
	default:
		return false
	}
}
