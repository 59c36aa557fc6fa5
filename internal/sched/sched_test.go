package sched

import (
	"testing"

	"cgra/internal/arch"
	"cgra/internal/cdfg"
	"cgra/internal/ir"
	"cgra/internal/irtext"
)

func compile(t *testing.T, src string) *cdfg.Graph {
	t.Helper()
	k := mustParse(t, src)
	g, err := cdfg.Build(k, cdfg.BuildOptions{})
	if err != nil {
		t.Fatalf("cdfg: %v", err)
	}
	return g
}

func mesh4(t *testing.T) *arch.Composition {
	t.Helper()
	c, err := arch.HomogeneousMesh(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func schedule(t *testing.T, src string, comp *arch.Composition, opts Options) *Schedule {
	t.Helper()
	g := compile(t, src)
	s, err := Run(g, comp, opts)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	return s
}

func TestScheduleStraightLine(t *testing.T) {
	s := schedule(t, `kernel k(in x, in y, inout r) { r = x * y + 7; }`, mesh4(t), Options{})
	if s.Length == 0 {
		t.Fatal("empty schedule")
	}
	// The multiply, the add, and a fused or separate pwrite must appear.
	var haveMul, haveAdd bool
	for _, op := range s.Ops {
		switch op.Code {
		case arch.IMUL:
			haveMul = true
		case arch.IADD:
			haveAdd = true
		}
	}
	if !haveMul || !haveAdd {
		t.Errorf("missing ops: mul=%v add=%v", haveMul, haveAdd)
	}
	if _, ok := s.Homes["r"]; !ok {
		t.Error("no home for r")
	}
	// The final context must be a self-jump halt.
	halt := s.CCU[s.Length-1]
	if halt == nil || !halt.Uncond || halt.Target != s.Length-1 {
		t.Errorf("missing halt context: %+v", halt)
	}
}

func TestScheduleFusesPWrite(t *testing.T) {
	s := schedule(t, `kernel k(in x, inout r) { r = x + 1; }`, mesh4(t), Options{})
	if s.Stats.FusedPWrites != 1 {
		t.Errorf("fused pwrites = %d, want 1", s.Stats.FusedPWrites)
	}
	// The IADD's destination must be r's home slot.
	for _, op := range s.Ops {
		if op.Code == arch.IADD {
			if op.Dest == nil || !op.Dest.IsHome || op.Dest.Local != "r" {
				t.Errorf("IADD dest = %+v, want home of r", op.Dest)
			}
		}
	}
}

func TestScheduleNoFusingOption(t *testing.T) {
	s := schedule(t, `kernel k(in x, inout r) { r = x + 1; }`, mesh4(t), Options{NoFusing: true})
	if s.Stats.FusedPWrites != 0 {
		t.Errorf("fused pwrites = %d, want 0 with NoFusing", s.Stats.FusedPWrites)
	}
	if s.Stats.UnfusedPWrites == 0 {
		t.Error("expected an explicit pwrite MOVE")
	}
}

func TestSchedulePredicatedIf(t *testing.T) {
	s := schedule(t, `
kernel k(in x, inout r) {
	if (x < 0) { r = 0 - x; } else { r = x; }
}`, mesh4(t), Options{})
	// Predicated writes must carry predication slots.
	pred := 0
	for _, op := range s.Ops {
		if op.PredSlot != nil {
			pred++
		}
	}
	if pred < 2 {
		t.Errorf("predicated commits = %d, want >= 2 (then+else writes)", pred)
	}
	if len(s.CBox) == 0 {
		t.Error("no C-Box operations for the condition")
	}
}

func TestScheduleLoopLayout(t *testing.T) {
	s := schedule(t, `
kernel sum(array a, in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) {
		s = s + a[i];
		i = i + 1;
	}
}`, mesh4(t), Options{})
	if len(s.LoopRanges) != 1 {
		t.Fatalf("loop ranges = %d, want 1", len(s.LoopRanges))
	}
	lr := s.LoopRanges[0]
	// There must be a conditional exit jump inside the loop range and an
	// unconditional back jump at its end.
	back := s.CCU[lr[1]]
	if back == nil || !back.Uncond || back.Target != lr[0] {
		t.Fatalf("back jump wrong: %+v (range %v)", back, lr)
	}
	var exit *CCUOp
	for c := lr[0]; c <= lr[1]; c++ {
		if j := s.CCU[c]; j != nil && !j.Uncond {
			exit = j
		}
	}
	if exit == nil {
		t.Fatal("no conditional exit jump in loop range")
	}
	if !exit.Invert {
		t.Error("exit jump should fire when the continue condition is false")
	}
	if exit.Target != lr[1]+1 {
		t.Errorf("exit target = %d, want %d", exit.Target, lr[1]+1)
	}
	// DMA load must be inside the loop.
	for _, op := range s.Ops {
		if op.Code == arch.LOAD {
			if op.Cycle < lr[0] || op.Cycle > lr[1] {
				t.Errorf("LOAD at cycle %d outside loop %v", op.Cycle, lr)
			}
			if !s.Comp.PEs[op.PE].HasDMA {
				t.Errorf("LOAD on non-DMA PE %d", op.PE)
			}
		}
	}
}

func TestScheduleNestedLoops(t *testing.T) {
	s := schedule(t, `
kernel k(in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) {
		j = 0;
		while (j < n) {
			s = s + 1;
			j = j + 1;
		}
		i = i + 1;
	}
}`, mesh4(t), Options{})
	if len(s.LoopRanges) != 2 {
		t.Fatalf("loop ranges = %d, want 2", len(s.LoopRanges))
	}
	// Inner loop recorded first; it must nest inside the outer range.
	inner, outer := s.LoopRanges[0], s.LoopRanges[1]
	if !(outer[0] < inner[0] && inner[1] < outer[1]) {
		t.Errorf("inner %v not nested in outer %v", inner, outer)
	}
}

func TestScheduleBranchedIf(t *testing.T) {
	s := schedule(t, `
kernel k(in n, in c, inout s) {
	s = 0;
	if (c > 0) {
		i = 0;
		while (i < n) { s = s + i; i = i + 1; }
	} else {
		s = 0 - 1;
	}
}`, mesh4(t), Options{})
	// Expect at least: conditional jump into arms, jump over else.
	conds, unconds := 0, 0
	for _, j := range s.CCU {
		if j.Uncond && j.Target != j.Cycle {
			unconds++
		}
		if !j.Uncond {
			conds++
		}
	}
	if conds < 2 { // if-branch + loop exit
		t.Errorf("conditional jumps = %d, want >= 2", conds)
	}
	if unconds < 2 { // loop back jump + skip-else
		t.Errorf("unconditional jumps = %d, want >= 2", unconds)
	}
}

func TestScheduleOnAllEvaluatedCompositions(t *testing.T) {
	src := `
kernel mix(array a, in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) {
		v = a[i];
		if (v < 0) { v = 0 - v; }
		s = s + v * 3;
		i = i + 1;
	}
}`
	all, err := arch.EvaluatedCompositions(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range all {
		comp := comp
		t.Run(comp.Name, func(t *testing.T) {
			s := schedule(t, src, comp, Options{})
			if s.Length == 0 {
				t.Fatal("empty schedule")
			}
		})
	}
}

func TestScheduleInhomogeneousMultiplier(t *testing.T) {
	// On composition F only two PEs multiply: the IMULs must land there.
	f, err := arch.IrregularComposition("F", 2)
	if err != nil {
		t.Fatal(err)
	}
	s := schedule(t, `kernel k(in x, in y, inout r) { r = x * y + x * 2; }`, f, Options{})
	mulPEs := map[int]bool{}
	for _, pe := range f.SupportingPEs(arch.IMUL) {
		mulPEs[pe] = true
	}
	for _, op := range s.Ops {
		if op.Code == arch.IMUL && !mulPEs[op.PE] {
			t.Errorf("IMUL on PE %d which lacks a multiplier", op.PE)
		}
	}
}

func TestScheduleAttractionAblation(t *testing.T) {
	src := `
kernel k(array a, in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) {
		s = s + a[i] * a[i];
		i = i + 1;
	}
}`
	comp := mesh4(t)
	with := schedule(t, src, comp, Options{})
	without := schedule(t, src, comp, Options{NoAttraction: true})
	if with.Length == 0 || without.Length == 0 {
		t.Fatal("empty schedule")
	}
	// Both are valid schedules; typically attraction reduces copies.
	t.Logf("attraction: len=%d copies=%d; without: len=%d copies=%d",
		with.Length, with.Stats.CopiesInserted, without.Length, without.Stats.CopiesInserted)
}

func TestScheduleConditionChainSerialized(t *testing.T) {
	// Three conjoined compares: the C-Box consumes one status per cycle,
	// so the three consume ops must sit in distinct cycles.
	s := schedule(t, `
kernel k(in a, in b, in c, inout r) {
	r = 0;
	if (a > 0 && b > 0 && c > 0) { r = 1; }
}`, mesh4(t), Options{})
	cycles := map[int]bool{}
	consumes := 0
	for _, cb := range s.CBox {
		if cb.Kind == CBConsume {
			consumes++
			if cycles[cb.Cycle] {
				t.Errorf("two C-Box consumes at cycle %d", cb.Cycle)
			}
			cycles[cb.Cycle] = true
		}
	}
	if consumes != 3 {
		t.Errorf("consumes = %d, want 3", consumes)
	}
}

func TestScheduleDisconnectedRejected(t *testing.T) {
	comp := mesh4(t)
	// Remove every input of PE 3: unreachable.
	comp.PEs[3].Inputs = nil
	for _, pe := range comp.PEs {
		var in []int
		for _, s := range pe.Inputs {
			if s != 3 {
				in = append(in, s)
			}
		}
		pe.Inputs = in
	}
	g := compile(t, `kernel k(in x, inout r) { r = x; }`)
	if _, err := Run(g, comp, Options{}); err == nil {
		t.Error("disconnected composition accepted")
	}
}

func TestScheduleDeterministic(t *testing.T) {
	src := `
kernel k(array a, in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) {
		v = a[i];
		if (v > 10) { v = 10; } else { v = v + 1; }
		s = s + v;
		i = i + 1;
	}
}`
	comp := mesh4(t)
	s1 := schedule(t, src, comp, Options{})
	s2 := schedule(t, src, comp, Options{})
	if s1.Length != s2.Length || len(s1.Ops) != len(s2.Ops) {
		t.Fatalf("nondeterministic: %d/%d ops vs %d/%d",
			s1.Length, len(s1.Ops), s2.Length, len(s2.Ops))
	}
	for i := range s1.Ops {
		a, b := s1.Ops[i], s2.Ops[i]
		if a.PE != b.PE || a.Cycle != b.Cycle || a.Code != b.Code {
			t.Fatalf("op %d differs: %v vs %v", i, a, b)
		}
	}
}

func TestScheduleUsedContextsWithinMemory(t *testing.T) {
	s := schedule(t, `
kernel k(array a, in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) { s = s + a[i]; i = i + 1; }
}`, mesh4(t), Options{})
	if s.Length > s.Comp.ContextSize {
		t.Errorf("schedule needs %d contexts, memory holds %d", s.Length, s.Comp.ContextSize)
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
