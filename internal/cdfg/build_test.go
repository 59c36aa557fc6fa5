package cdfg

import (
	"strings"
	"testing"

	"cgra/internal/arch"
	"cgra/internal/ir"
	"cgra/internal/irtext"
)

func build(t *testing.T, src string) *Graph {
	t.Helper()
	k := mustParse(t, src)
	g, err := Build(k, BuildOptions{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

func TestBuildStraightLine(t *testing.T) {
	g := build(t, `kernel k(in x, in y, inout r) { r = x * y + 3; }`)
	if g.Root.Kind != RBlock {
		t.Fatalf("root kind = %v, want RBlock", g.Root.Kind)
	}
	nodes := g.AllNodes()
	// IMUL, IADD, pwrite r
	if len(nodes) != 3 {
		t.Fatalf("got %d nodes, want 3:\n%s", len(nodes), g)
	}
	pw := nodes[2]
	if pw.Kind != KPWrite || pw.Local.Name != "r" {
		t.Fatalf("last node is %s, want pwrite r", pw)
	}
	if pw.AliasOf == nil || pw.AliasOf.Op != arch.IADD {
		t.Error("unpredicated pwrite should alias its producer")
	}
	if !g.Local("r").LiveOut || !g.Local("r").LiveIn {
		t.Error("inout param should be live-in and live-out")
	}
	if g.Local("x").LiveOut {
		t.Error("in param must not be live-out")
	}
}

func TestBuildPredicatedIf(t *testing.T) {
	g := build(t, `
kernel k(in x, inout r) {
	if (x < 0) {
		r = 0 - x;
	} else {
		r = x;
	}
}`)
	// Everything predicates into a single block.
	if g.Root.Kind != RBlock {
		t.Fatalf("root kind = %v, want RBlock (predicated if)\n%s", g.Root.Kind, g)
	}
	st := g.Stats()
	if st.Loops != 0 || st.BranchedIfs != 0 {
		t.Errorf("loops=%d branchedIfs=%d, want 0/0", st.Loops, st.BranchedIfs)
	}
	if st.Compares != 1 {
		t.Errorf("compares = %d, want 1", st.Compares)
	}
	// Two predicates (then and else).
	if len(g.Preds) != 2 {
		t.Fatalf("predicates = %d, want 2", len(g.Preds))
	}
	if !g.Preds[1].Negate {
		t.Error("else predicate must be negated")
	}
	// Both pwrites of r are predicated with no alias.
	var pwrites []*Node
	for _, n := range g.AllNodes() {
		if n.Kind == KPWrite && n.Local.Name == "r" {
			pwrites = append(pwrites, n)
		}
	}
	if len(pwrites) != 2 {
		t.Fatalf("pwrites of r = %d, want 2", len(pwrites))
	}
	for _, pw := range pwrites {
		if pw.Pred == nil {
			t.Error("pwrite in if-arm must be predicated")
		}
		if pw.AliasOf != nil {
			t.Error("predicated pwrite must not alias")
		}
	}
}

func TestBuildReadAfterPredicatedWrite(t *testing.T) {
	g := build(t, `
kernel k(in x, inout r) {
	v = x;
	if (x < 0) { v = 0 - x; }
	r = v + 1;
}`)
	// The IADD reading v must wait for both the base write and the
	// predicated write.
	var add *Node
	for _, n := range g.AllNodes() {
		if n.Kind == KOp && n.Op == arch.IADD {
			add = n
		}
	}
	if add == nil {
		t.Fatal("no IADD found")
	}
	writers := 0
	for _, p := range add.Prereqs {
		if p.Kind == KPWrite && p.Local.Name == "v" {
			writers++
		}
	}
	if writers != 2 {
		t.Errorf("IADD waits for %d writers of v, want 2\n%s", writers, g)
	}
}

func TestBuildLoopRegion(t *testing.T) {
	g := build(t, `
kernel sum(array a, in n, inout s) {
	s = 0;
	for (i = 0; i < n; i = i + 1) {
		s = s + a[i];
	}
}`)
	seq, ok := g.Root, true
	if seq.Kind != RSeq {
		t.Fatalf("root kind = %v, want RSeq\n%s", seq.Kind, g)
	}
	var loop *Region
	for _, c := range seq.Children {
		if c.Kind == RLoop {
			loop = c
			ok = true
		}
	}
	if !ok || loop == nil {
		t.Fatalf("no loop region found\n%s", g)
	}
	if loop.Header == nil || loop.Header.Cond == nil {
		t.Fatal("loop header must carry the condition")
	}
	if loop.Header.Cond.NumLeaves() != 1 {
		t.Errorf("loop condition leaves = %d, want 1", loop.Header.Cond.NumLeaves())
	}
	if loop.Depth != 1 {
		t.Errorf("loop depth = %d, want 1", loop.Depth)
	}
	// Nodes in the body belong to the loop.
	for _, blk := range loop.Body.Blocks() {
		for _, n := range blk.Nodes {
			if n.Loop != loop {
				t.Errorf("body node %s not annotated with loop", n)
			}
		}
	}
	st := g.Stats()
	if st.Loops != 1 || st.MaxLoopDepth != 1 {
		t.Errorf("loops=%d depth=%d, want 1/1", st.Loops, st.MaxLoopDepth)
	}
	if st.DMALoads != 1 {
		t.Errorf("DMA loads = %d, want 1", st.DMALoads)
	}
}

func TestBuildNestedLoopDepth(t *testing.T) {
	g := build(t, `
kernel k(in n, inout s) {
	s = 0;
	for (i = 0; i < n; i = i + 1) {
		for (j = 0; j < n; j = j + 1) {
			s = s + 1;
		}
	}
}`)
	st := g.Stats()
	if st.Loops != 2 {
		t.Errorf("loops = %d, want 2", st.Loops)
	}
	if st.MaxLoopDepth != 2 {
		t.Errorf("max depth = %d, want 2", st.MaxLoopDepth)
	}
}

func TestBuildBranchedIf(t *testing.T) {
	// A conditional containing a loop must become an RIf region.
	g := build(t, `
kernel k(in n, in c, inout s) {
	s = 0;
	if (c > 0) {
		for (i = 0; i < n; i = i + 1) { s = s + i; }
	} else {
		s = 0 - 1;
	}
}`)
	found := false
	g.Root.Walk(func(r *Region) {
		if r.Kind == RIf {
			found = true
			if r.CondBlock == nil || r.CondBlock.Cond == nil {
				t.Error("RIf without condition block")
			}
			if r.Then == nil || r.Else == nil {
				t.Error("RIf arms missing")
			}
		}
	})
	if !found {
		t.Fatalf("no RIf region\n%s", g)
	}
	if g.Stats().BranchedIfs != 1 {
		t.Errorf("branched ifs = %d, want 1", g.Stats().BranchedIfs)
	}
}

func TestBuildBranchAllIfsOption(t *testing.T) {
	k := mustParse(t, `kernel k(in x, inout r) { if (x > 0) { r = 1; } else { r = 2; } }`)
	g, err := Build(k, BuildOptions{BranchAllIfs: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	g.Root.Walk(func(r *Region) {
		if r.Kind == RIf {
			found = true
		}
	})
	if !found {
		t.Error("BranchAllIfs did not produce an RIf")
	}
}

func TestBuildGuardedShortCircuitLoad(t *testing.T) {
	// The load on the right of && must carry a guard predicate.
	g := build(t, `
kernel k(array a, in i, in n, inout r) {
	r = 0;
	if (i < n && a[i] > 0) { r = 1; }
}`)
	var load *Node
	for _, n := range g.AllNodes() {
		if n.Kind == KOp && n.Op == arch.LOAD {
			load = n
		}
	}
	if load == nil {
		t.Fatal("no LOAD")
	}
	if load.Pred == nil {
		t.Error("guarded load must be predicated (short-circuit safety)")
	}
}

func TestBuildConditionAndLeaves(t *testing.T) {
	g := build(t, `
kernel k(in x, in y, inout r) {
	r = 0;
	while (x > 0 && y > 0) {
		x = x - 1;
		y = y - 1;
		r = r + 1;
	}
}`)
	var loop *Region
	g.Root.Walk(func(q *Region) {
		if q.Kind == RLoop {
			loop = q
		}
	})
	if loop == nil {
		t.Fatal("no loop")
	}
	c := loop.Header.Cond
	if c.Op != CondAnd {
		t.Fatalf("condition op = %v, want CondAnd (%s)", c.Op, c)
	}
	if c.NumLeaves() != 2 {
		t.Errorf("leaves = %d, want 2", c.NumLeaves())
	}
}

func TestBuildNegationDeMorgan(t *testing.T) {
	// !(x < 3 && y < 4)  ==>  x >= 3 || y >= 4 (negation at the leaves).
	g := build(t, `
kernel k(in x, in y, inout r) {
	r = 0;
	if (!(x < 3 && y < 4)) { r = 1; }
}`)
	if len(g.Preds) == 0 {
		t.Fatal("no predicates")
	}
	cond := g.Preds[len(g.Preds)-1].Cond
	// Find the if-predicate's condition: must be an Or of two compares
	// with flipped opcodes.
	var ifPred *Pred
	for _, p := range g.Preds {
		if p.Cond != nil && p.Cond.Op == CondOr {
			ifPred = p
		}
	}
	if ifPred == nil {
		t.Fatalf("no Or condition found (De Morgan should flip And), cond=%s\n%s", cond, g)
	}
	for _, leaf := range ifPred.Cond.Leaves(nil) {
		if leaf.Op != arch.IFGE {
			t.Errorf("leaf op = %v, want IFGE (negated IFLT)", leaf.Op)
		}
	}
}

func TestBuildBoolMaterialization(t *testing.T) {
	g := build(t, `kernel k(in x, in y, inout r) { r = x < y; }`)
	// Expect: pwrite $t 0; compare; pwrite $t 1 @pred; pwrite r.
	st := g.Stats()
	if st.Compares != 1 {
		t.Errorf("compares = %d, want 1", st.Compares)
	}
	var predicated *Node
	for _, n := range g.AllNodes() {
		if n.Kind == KPWrite && n.Pred != nil {
			predicated = n
		}
	}
	if predicated == nil {
		t.Fatalf("no predicated pwrite for bool materialization\n%s", g)
	}
	if predicated.Args[0].Kind != FromConst || predicated.Args[0].Const != 1 {
		t.Error("predicated write should commit constant 1")
	}
}

func TestBuildDeadPWriteRemoval(t *testing.T) {
	g := build(t, `kernel k(in x, inout r) { dead = x + 1; r = x; }`)
	for _, n := range g.AllNodes() {
		if n.Kind == KPWrite && n.Local.Name == "dead" {
			t.Errorf("dead pwrite survived: %s", n)
		}
	}
}

func TestBuildWARWeakEdge(t *testing.T) {
	g := build(t, `kernel k(inout x, inout y) { y = x + 1; x = 7; }`)
	var pwX *Node
	var add *Node
	for _, n := range g.AllNodes() {
		if n.Kind == KPWrite && n.Local.Name == "x" {
			pwX = n
		}
		if n.Kind == KOp && n.Op == arch.IADD {
			add = n
		}
	}
	if pwX == nil || add == nil {
		t.Fatalf("missing nodes\n%s", g)
	}
	found := false
	for _, w := range pwX.WeakPrereqs {
		if w == add {
			found = true
		}
	}
	if !found {
		t.Error("write of x must weakly order after the read of x (WAR)")
	}
}

func TestBuildWAWEdge(t *testing.T) {
	g := build(t, `kernel k(inout x) { x = 1; x = 2; }`)
	var pws []*Node
	for _, n := range g.AllNodes() {
		if n.Kind == KPWrite && n.Local.Name == "x" {
			pws = append(pws, n)
		}
	}
	if len(pws) != 2 {
		t.Fatalf("pwrites = %d, want 2", len(pws))
	}
	found := false
	for _, p := range pws[1].Prereqs {
		if p == pws[0] {
			found = true
		}
	}
	if !found {
		t.Error("second write must strictly order after the first (WAW)")
	}
}

func TestBuildDMAOrdering(t *testing.T) {
	g := build(t, `
kernel k(array a, inout r) {
	a[0] = 1;
	r = a[0];
	a[1] = r;
}`)
	var store1, load, store2 *Node
	for _, n := range g.AllNodes() {
		if n.Kind != KOp {
			continue
		}
		switch {
		case n.Op == arch.STORE && store1 == nil:
			store1 = n
		case n.Op == arch.LOAD:
			load = n
		case n.Op == arch.STORE:
			store2 = n
		}
	}
	if store1 == nil || load == nil || store2 == nil {
		t.Fatalf("missing DMA nodes\n%s", g)
	}
	has := func(n, want *Node) bool {
		for _, p := range n.Prereqs {
			if p == want {
				return true
			}
		}
		return false
	}
	if !has(load, store1) {
		t.Error("load must order after preceding store")
	}
	if !has(store2, load) {
		t.Error("store must order after preceding load")
	}
}

func TestBuildStatsADPCMShape(t *testing.T) {
	// A miniature of the paper's Fig. 12 shape: outer loop, conditional
	// nested loop, conditionals in the body.
	g := build(t, `
kernel mini(array a, in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) {
		v = a[i];
		if (v < 0) { v = 0 - v; }
		if (v > 100) {
			j = 0;
			while (j < 3) {
				v = v >> 1;
				j = j + 1;
			}
		}
		s = s + v;
		i = i + 1;
	}
}`)
	st := g.Stats()
	if st.Loops != 2 {
		t.Errorf("loops = %d, want 2", st.Loops)
	}
	if st.MaxLoopDepth != 2 {
		t.Errorf("depth = %d, want 2", st.MaxLoopDepth)
	}
	if st.BranchedIfs != 1 {
		t.Errorf("branched ifs = %d, want 1 (the one containing the loop)", st.BranchedIfs)
	}
	if st.Predicates == 0 || st.PredicatedOps == 0 {
		t.Error("expected predicated operations for the inline if")
	}
}

func TestBuildLiveInOutLists(t *testing.T) {
	g := build(t, `kernel k(in a, inout b, array m, in c) { b = a + c; m[0] = b; }`)
	ins := g.LiveIns()
	if strings.Join(ins, ",") != "a,b,c" {
		t.Errorf("live-ins = %v", ins)
	}
	outs := g.LiveOuts()
	if strings.Join(outs, ",") != "b" {
		t.Errorf("live-outs = %v", outs)
	}
	if g.ArrayID("m") != 0 || g.ArrayID("zz") != -1 {
		t.Error("ArrayID wrong")
	}
}

func TestBuildEmptyKernel(t *testing.T) {
	k := ir.NewKernel("empty", []ir.Param{ir.In("x")})
	g, err := Build(k, BuildOptions{})
	if err != nil {
		t.Fatalf("empty kernel: %v", err)
	}
	if len(g.AllNodes()) != 0 {
		t.Errorf("empty kernel has %d nodes", len(g.AllNodes()))
	}
}

func TestBuildStringSmoke(t *testing.T) {
	g := build(t, `
kernel k(in n, inout s) {
	s = 0;
	for (i = 0; i < n; i = i + 1) {
		if (i > 2) { s = s + i; }
	}
}`)
	out := g.String()
	for _, want := range []string{"cdfg k", "loop", "pwrite %s", "cond:"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestBuildValidateFails(t *testing.T) {
	k := ir.NewKernel("bad", []ir.Param{ir.InOut("r")}, ir.Set("r", ir.V("nope")))
	if _, err := Build(k, BuildOptions{}); err == nil {
		t.Error("expected validation error")
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
