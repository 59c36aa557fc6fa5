// Package kgen generates random, always-terminating kernels for
// differential fuzzing of the tool flow: every generated kernel is run
// through compile→simulate and compared against the reference interpreter.
// The generator exercises the scheduler's full feature surface — nested
// counted loops, data-dependent conditionals (predicated and branched),
// array loads/stores with masked indices, boolean materialization and
// logical short-circuit conditions — while guaranteeing termination and
// in-bounds memory accesses by construction.
package kgen

import (
	"fmt"
	"math/rand"

	"cgra/internal/ir"
)

// Config bounds the generated kernels.
type Config struct {
	// MaxStmts bounds statements per block (default 5).
	MaxStmts int
	// MaxDepth bounds control-flow nesting (default 2).
	MaxDepth int
	// MaxLoopTrip bounds counted-loop trip counts (default 5).
	MaxLoopTrip int
	// ArrayLen is the length of generated arrays; a power of two so
	// indices can be masked in bounds (default 8).
	ArrayLen int
}

func (c *Config) defaults() {
	if c.MaxStmts == 0 {
		c.MaxStmts = 5
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 2
	}
	if c.MaxLoopTrip == 0 {
		c.MaxLoopTrip = 5
	}
	if c.ArrayLen == 0 {
		c.ArrayLen = 8
	}
}

// Generated bundles a random kernel with matching inputs.
type Generated struct {
	Kernel *ir.Kernel
	Args   map[string]int32
	// NewHost builds a fresh host heap with the kernel's arrays.
	NewHost func() *ir.Host
}

// New generates one kernel from the seed.
func New(seed int64, cfg Config) *Generated {
	cfg.defaults()
	rng := rand.New(rand.NewSource(seed))
	g := &gen{rng: rng, cfg: cfg, protected: map[string]bool{}}
	return g.kernel(seed)
}

type gen struct {
	rng     *rand.Rand
	cfg     Config
	scalars []string // definitely-assigned scalar variables in scope
	arrays  []string
	// protected variables (live loop counters) must not be overwritten,
	// or termination would be lost.
	protected map[string]bool
	loopVar   int
	tempVar   int
}

func (g *gen) kernel(seed int64) *Generated {
	// Parameters: two scalar ins, one inout accumulator, 1-2 arrays.
	params := []ir.Param{ir.In("p"), ir.In("q"), ir.InOut("acc")}
	g.scalars = []string{"p", "q", "acc"}
	nArrays := 1 + g.rng.Intn(2)
	for i := 0; i < nArrays; i++ {
		name := fmt.Sprintf("m%d", i)
		params = append(params, ir.Array(name))
		g.arrays = append(g.arrays, name)
	}
	body := g.stmts(g.cfg.MaxDepth)
	// Make sure the accumulator reflects some of the computation.
	body = append(body, ir.Set("acc", ir.Add(ir.V("acc"), g.expr(2))))
	k := &ir.Kernel{Name: fmt.Sprintf("fuzz%d", seed), Params: params, Body: body}

	args := map[string]int32{
		"p":   int32(g.rng.Intn(2001) - 1000),
		"q":   int32(g.rng.Intn(2001) - 1000),
		"acc": int32(g.rng.Intn(100)),
	}
	arrays := g.arrays
	alen := g.cfg.ArrayLen
	// Pre-draw array contents so NewHost is deterministic per kernel.
	contents := map[string][]int32{}
	for _, a := range arrays {
		data := make([]int32, alen)
		for i := range data {
			data[i] = int32(g.rng.Intn(512) - 256)
		}
		contents[a] = data
	}
	return &Generated{
		Kernel: k,
		Args:   args,
		NewHost: func() *ir.Host {
			h := ir.NewHost()
			for name, data := range contents {
				h.Arrays[name] = append([]int32(nil), data...)
			}
			return h
		},
	}
}

func (g *gen) stmts(depth int) []ir.Stmt {
	n := 1 + g.rng.Intn(g.cfg.MaxStmts)
	out := make([]ir.Stmt, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.stmt(depth))
	}
	return out
}

func (g *gen) stmt(depth int) ir.Stmt {
	roll := g.rng.Intn(10)
	switch {
	case roll < 4 || depth == 0: // assignment
		return g.assign()
	case roll < 6: // array store
		return g.store()
	case roll < 8: // conditional
		cond := g.cond(depth - 1)
		// Variables first assigned inside an arm are only conditionally
		// defined: restore the scope after each arm.
		saved := append([]string(nil), g.scalars...)
		then := g.stmts(depth - 1)
		g.scalars = append([]string(nil), saved...)
		els := g.maybeElse(depth - 1)
		g.scalars = saved
		return &ir.If{Cond: cond, Then: then, Else: els}
	default: // bounded counted loop
		return g.loop(depth - 1)
	}
}

func (g *gen) maybeElse(depth int) []ir.Stmt {
	if g.rng.Intn(2) == 0 {
		return nil
	}
	return g.stmts(depth)
}

func (g *gen) assign() ir.Stmt {
	// Mostly new temporaries; occasionally overwrite an existing scalar
	// (exercising pWRITE versioning and WAR/WAW ordering).
	var name string
	if g.rng.Intn(3) == 0 {
		if cand := g.overwritable(); cand != "" {
			name = cand
		}
	}
	if name == "" {
		g.tempVar++
		name = fmt.Sprintf("t%d", g.tempVar)
	}
	s := ir.Set(name, g.expr(2))
	if !contains(g.scalars, name) {
		g.scalars = append(g.scalars, name)
	}
	return s
}

func (g *gen) store() ir.Stmt {
	arr := g.arrays[g.rng.Intn(len(g.arrays))]
	return ir.SetElem(arr, g.index(), g.expr(1))
}

// loop emits i = 0; while (i < K) { body; i = i + 1; } with a fresh loop
// variable, guaranteeing termination. The body may read but never write i
// (fresh temporaries only write temps or pre-existing scalars, and i is
// appended after body generation).
func (g *gen) loop(depth int) ir.Stmt {
	g.loopVar++
	iv := fmt.Sprintf("i%d", g.loopVar)
	trip := 1 + g.rng.Intn(g.cfg.MaxLoopTrip)
	savedScalars := append([]string(nil), g.scalars...)
	g.scalars = append(g.scalars, iv)
	g.protected[iv] = true
	body := g.stmts(depth)
	body = append(body, ir.Set(iv, ir.Add(ir.V(iv), ir.C(1))))
	delete(g.protected, iv)
	g.scalars = savedScalars
	return &ir.For{
		Init: ir.Set(iv, ir.C(0)),
		Cond: ir.Lt(ir.V(iv), ir.C(int32(trip))),
		Post: nil,
		Body: body,
	}
}

// IncrementInPost moves the counter increment loop puts last in every loop
// body into the for statement's post clause: the form a counted loop needs
// to reach the software pipeliner. It rewrites stmts in place.
func IncrementInPost(stmts []ir.Stmt) []ir.Stmt {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.If:
			s.Then, s.Else = IncrementInPost(s.Then), IncrementInPost(s.Else)
		case *ir.While:
			s.Body = IncrementInPost(s.Body)
		case *ir.For:
			s.Body = IncrementInPost(s.Body)
			if last, ok := s.Body[len(s.Body)-1].(*ir.Assign); ok && s.Post == nil && last.Name == s.Init.Name {
				s.Post, s.Body = last, s.Body[:len(s.Body)-1]
			}
		}
	}
	return stmts
}

// index produces an always-in-bounds array index: expr & (len-1).
func (g *gen) index() ir.Expr {
	return ir.And(g.expr(1), ir.C(int32(g.cfg.ArrayLen-1)))
}

func (g *gen) expr(depth int) ir.Expr {
	if depth == 0 || g.rng.Intn(4) == 0 {
		return g.leaf()
	}
	switch g.rng.Intn(8) {
	case 0:
		return ir.Neg(g.expr(depth - 1))
	case 1:
		return ir.Not(g.expr(depth - 1))
	case 2: // array load, masked index
		arr := g.arrays[g.rng.Intn(len(g.arrays))]
		return ir.At(arr, g.index())
	case 3: // shift with masked amount
		return &ir.Bin{
			Op: []ir.BinOp{ir.OpShl, ir.OpShr, ir.OpShrU}[g.rng.Intn(3)],
			X:  g.expr(depth - 1),
			Y:  ir.And(g.expr(depth-1), ir.C(7)),
		}
	case 4: // comparison as value (bool materialization)
		return &ir.Bin{
			Op: []ir.BinOp{ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpEq, ir.OpNe}[g.rng.Intn(6)],
			X:  g.expr(depth - 1),
			Y:  g.expr(depth - 1),
		}
	default:
		return &ir.Bin{
			Op: []ir.BinOp{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor}[g.rng.Intn(6)],
			X:  g.expr(depth - 1),
			Y:  g.expr(depth - 1),
		}
	}
}

func (g *gen) leaf() ir.Expr {
	if g.rng.Intn(3) == 0 {
		return ir.C(int32(g.rng.Intn(201) - 100))
	}
	return ir.V(g.scalars[g.rng.Intn(len(g.scalars))])
}

// cond produces a boolean condition, possibly a short-circuit combination.
func (g *gen) cond(depth int) ir.Expr {
	cmp := func() ir.Expr {
		return &ir.Bin{
			Op: []ir.BinOp{ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpEq, ir.OpNe}[g.rng.Intn(6)],
			X:  g.expr(1),
			Y:  g.expr(1),
		}
	}
	switch g.rng.Intn(4) {
	case 0:
		return ir.LAnd(cmp(), cmp())
	case 1:
		return ir.LOr(cmp(), cmp())
	case 2:
		return ir.LNot(cmp())
	default:
		return cmp()
	}
}

// overwritable picks an in-scope scalar that may be reassigned, or "".
func (g *gen) overwritable() string {
	var cands []string
	for _, s := range g.scalars {
		if !g.protected[s] {
			cands = append(cands, s)
		}
	}
	if len(cands) == 0 {
		return ""
	}
	return cands[g.rng.Intn(len(cands))]
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
