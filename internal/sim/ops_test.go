package sim_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cgra/internal/arch"
	"cgra/internal/ctxgen"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/pipeline"
	"cgra/internal/sched"
	"cgra/internal/sim"
)

// oneOpProgram hand-builds a one-context program on comp that issues op on
// PE pe and halts.
func oneOpProgram(comp *arch.Composition, pe int, op arch.OpCode) *ctxgen.Program {
	p := &ctxgen.Program{
		Comp:   comp,
		NumCtx: 1,
		PE:     make([][]ctxgen.PECtx, comp.NumPEs()),
		CBox:   make([]ctxgen.CBoxCtx, 1),
		CCU:    []ctxgen.CCUCtx{{Mode: ctxgen.CCUJump, Target: 0}},
	}
	for i := range p.PE {
		p.PE[i] = make([]ctxgen.PECtx, 1)
	}
	p.PE[pe][0] = ctxgen.PECtx{Op: op, WriteEnable: true}
	return p
}

// checkRefused hand-builds a program that issues op on PE pe of comp, which
// the PE does not implement: Predecode must refuse it, naming the PE, the
// context and the op, and a machine running it must fail with that error
// instead of running the op.
func checkRefused(t *testing.T, comp *arch.Composition, pe int, op arch.OpCode) {
	t.Helper()
	if comp.PEs[pe].Supports(op) {
		t.Fatalf("PE %d of %s implements %v", pe, comp.Name, op)
	}
	prog := oneOpProgram(comp, pe, op)
	_, err := sim.Predecode(prog)
	if err == nil {
		t.Errorf("Predecode accepted %v on PE %d", op, pe)
		return
	}
	for _, want := range []string{fmt.Sprintf("PE %d", pe), "ctx 0", op.String()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Predecode error %q does not name %q", err, want)
		}
	}
	_, runErr := sim.New(prog).Run(nil, ir.NewHost())
	if runErr == nil || runErr.Error() != err.Error() {
		t.Errorf("Machine.Run of %v: error %v, want %v", op, runErr, err)
	}
}

// TestEvalALUUnknownOp asserts that an ALU op the PE lacks (IMUL on a PE
// of 8 PEs F, which has no multiplier) and an undefined opcode surface as
// a decode error rather than reaching arch.Eval.
func TestEvalALUUnknownOp(t *testing.T) {
	comp, err := arch.ByName("8 PEs F")
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []arch.OpCode{arch.IMUL, arch.OpCode(250)} {
		checkRefused(t, comp, 0, op)
	}
}

// TestPredecodeRefusesWideArrayTable asserts that a program with more DMA
// arrays than a commit record's meta word can name is refused, not run
// with its array indices cut.
func TestPredecodeRefusesWideArrayTable(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	prog := oneOpProgram(comp, 0, arch.IADD)
	if _, err := sim.Predecode(prog); err != nil {
		t.Fatalf("Predecode of the one-op program: %v", err)
	}
	prog.Arrays = make([]string, 1<<13)
	if _, err := sim.Predecode(prog); err == nil || !strings.Contains(err.Error(), "8192 arrays") {
		t.Errorf("Predecode of %d arrays: %v", len(prog.Arrays), err)
	}
}

// TestEvalCompareUnknownOp asserts that a compare the PE lacks surfaces as
// a decode error rather than reaching arch.Holds.
func TestEvalCompareUnknownOp(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	const pe = 4
	for _, op := range []arch.OpCode{arch.IFLT, arch.IFNE} {
		delete(comp.PEs[pe].Ops, op)
		checkRefused(t, comp, pe, op)
	}
}

// TestHaltDropsMultiCycleWrites pins what a halt does to writes still in
// flight: a 2-cycle IMUL and a 2-cycle LOAD issued in the halting context
// are due after the last cycle, so neither lands in its live-out. The
// hand-built program has one context, which halts; the load reads an array
// no store targets, so it would otherwise qualify for an early commit. It
// runs once on a one-element array and once on an empty one: an index out
// of range faults at the load's commit, so the halt drops the fault too,
// on every walk.
func TestHaltDropsMultiCycleWrites(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	const mulPE, loadPE = 0, 4
	if comp.PEs[mulPE].Duration(arch.IMUL) != 2 || comp.PEs[loadPE].Duration(arch.LOAD) != 2 {
		t.Fatalf("%s: IMUL or LOAD is not a 2-cycle op", comp.Name)
	}
	prog := oneOpProgram(comp, mulPE, arch.IMUL)
	prog.PE[mulPE][0].AMode, prog.PE[mulPE][0].BMode = ctxgen.SrcReg, ctxgen.SrcReg
	prog.PE[loadPE][0] = ctxgen.PECtx{Op: arch.LOAD, WriteEnable: true}
	prog.LiveIns = []string{"x", "y"}
	prog.LiveOuts = []string{"x", "y"}
	prog.Arrays = []string{"a"}
	prog.Homes = map[string]ctxgen.Home{"x": {PE: mulPE}, "y": {PE: loadPE}}
	eng, err := sim.Predecode(prog)
	if err != nil {
		t.Fatal(err)
	}

	args := map[string]int32{"x": 7, "y": -1}
	for _, a := range [][]int32{{42}, {}} {
		host := func() *ir.Host {
			h := ir.NewHost()
			h.Arrays["a"] = slices.Clone(a)
			return h
		}
		check := func(walk string, res *sim.Result, err error) {
			t.Helper()
			switch {
			case err != nil:
				t.Errorf("a=%v, %s: %v", a, walk, err)
			case res.RunCycles != 1 || !reflect.DeepEqual(res.LiveOuts, args):
				t.Errorf("a=%v, %s: %d cycles, live-outs %v; want 1 cycle, %v", a, walk, res.RunCycles, res.LiveOuts, args)
			}
		}
		res, err := sim.New(prog).Run(args, host())
		check("plain walk", res, err)
		m := sim.New(prog)
		sim.AttachCounters(m)
		res, err = m.Run(args, host())
		check("hooked walk", res, err)
		res, err = sim.New(prog).RefRun(args, host())
		check("reference interpreter", res, err)
		lanes := eng.RunBatch(context.Background(), 0, []sim.BatchRequest{{Args: args, Host: host()}, {Args: args, Host: host()}})
		for i, l := range lanes {
			check(fmt.Sprintf("RunBatch lane %d", i), l.Res, l.Err)
		}
	}
}

// everyOpKernel uses every operator cdfg lowers to a PE opcode on operands
// from v: v[0] and v[1] are the arithmetic operands, v[2..4] shift counts.
// The compares run both as values (predicated writes) and as a branch.
const everyOpKernel = `
kernel everyop(array v, array out, inout s) {
	a = v[0];
	b = v[1];
	out[0] = a + b;
	out[1] = a - b;
	out[2] = a * b;
	out[3] = a & b;
	out[4] = a | b;
	out[5] = a ^ b;
	out[6] = -a;
	out[7] = ~b;
	out[8] = a < b;
	out[9] = a <= b;
	out[10] = a > b;
	out[11] = a >= b;
	out[12] = a == b;
	out[13] = a != b;
	i = 0;
	while (i < 3) {
		n = v[2 + i];
		out[14 + 3 * i] = a << n;
		out[15 + 3 * i] = a >> n;
		out[16 + 3 * i] = a >>> n;
		i = i + 1;
	}
	if (a >= b) { s = s + 1; } else { s = s - 1; }
}`

// TestEveryOperatorEveryWalk runs every lowered operator on edge operands
// (INT_MIN, INT_MAX, shift counts 31, 32 and -1) through every way a
// program executes: the plain walk, the hooked walk with counters
// attached, RunBatch with three lanes on different inputs (which leave the
// lane walk at their first split), RunBatch with two identical lanes
// (which run on the lane walk to the halt), and the reference interpreter.
// All must equal ir.Interp on live-outs and heap.
func TestEveryOperatorEveryWalk(t *testing.T) {
	k, err := irtext.Parse(everyOpKernel)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		v []int32
		s int32
	}{
		{[]int32{math.MinInt32, -1, 31, 32, -1}, 0},
		{[]int32{math.MaxInt32, math.MinInt32, -1, 31, 32}, 5},
		{[]int32{-7, -7, 32, -1, 31}, -3},
	}
	host := func(i int) *ir.Host {
		h := ir.NewHost()
		h.Arrays["v"] = append([]int32(nil), inputs[i].v...)
		h.Arrays["out"] = make([]int32, 23)
		return h
	}
	args := func(i int) map[string]int32 { return map[string]int32{"s": inputs[i].s} }

	for _, cn := range []string{"9 PEs", "8 PEs F"} {
		comp, err := arch.ByName(cn)
		if err != nil {
			t.Fatal(err)
		}
		c, err := pipeline.Compile(k, comp, pipeline.Defaults())
		if err != nil {
			t.Fatalf("%s: compile: %v", cn, err)
		}
		issued := map[arch.OpCode]bool{}
		for _, stream := range c.Program.PE {
			for _, ctx := range stream {
				issued[ctx.Op] = true
			}
		}
		for _, op := range arch.AllOpCodes() {
			if !issued[op] {
				t.Errorf("%s: the program never issues %v", cn, op)
			}
		}
		eng, err := c.Engine()
		if err != nil {
			t.Fatalf("%s: predecode: %v", cn, err)
		}
		reqs := make([]sim.BatchRequest, len(inputs))
		for i := range inputs {
			reqs[i] = sim.BatchRequest{Args: args(i), Host: host(i)}
		}
		lanes := eng.RunBatch(context.Background(), 0, reqs)

		for i := range inputs {
			wantHost := host(i)
			want, err := (&ir.Interp{}).Run(k, args(i), wantHost)
			if err != nil {
				t.Fatalf("%s input %d: interpreter: %v", cn, i, err)
			}
			check := func(walk string, res *sim.Result, err error, h *ir.Host) {
				t.Helper()
				switch {
				case err != nil:
					t.Errorf("%s input %d, %s: %v", cn, i, walk, err)
				case !reflect.DeepEqual(res.LiveOuts, want):
					t.Errorf("%s input %d, %s: live-outs %v, want %v", cn, i, walk, res.LiveOuts, want)
				case !h.Equal(wantHost):
					t.Errorf("%s input %d, %s: out = %v, want %v", cn, i, walk, h.Arrays["out"], wantHost.Arrays["out"])
				}
			}
			h := host(i)
			res, err := sim.New(c.Program).Run(args(i), h)
			check("plain walk", res, err, h)

			m := sim.New(c.Program)
			counters := sim.AttachCounters(m)
			h = host(i)
			res, err = m.Run(args(i), h)
			check("hooked walk", res, err, h)
			if err == nil && counters.Cycles() != res.RunCycles {
				t.Errorf("%s input %d: counters saw %d cycles, run took %d", cn, i, counters.Cycles(), res.RunCycles)
			}

			check("RunBatch lane", lanes[i].Res, lanes[i].Err, reqs[i].Host)

			same := []sim.BatchRequest{{Args: args(i), Host: host(i)}, {Args: args(i), Host: host(i)}}
			for l, o := range eng.RunBatch(context.Background(), 0, same) {
				check(fmt.Sprintf("RunBatch identical lane %d", l), o.Res, o.Err, same[l].Host)
			}

			h = host(i)
			res, err = sim.New(c.Program).RefRun(args(i), h)
			check("reference interpreter", res, err, h)
		}
	}
}

// cboxWordProgram hand-builds a six-context program on comp around one
// C-Box word under test. Contexts 0 and 1 store the live-ins xa and xb
// (each compared != 0 on PE 0) in condition slots 1 and 2; context 2 issues
// the same compare on xs, so a status of PE 0 arrives, and runs word, whose
// operands name slots 1 and 2 and which writes slot 3. Context 3 observes
// slot 3 twice: as outPE, predicating p = 1 on PE 1, and as an inverted
// outCtrl, jumping to context 5 (j = 2) when the slot is false and falling
// through to context 4 (j = 1) when it is true. Contexts 4 and 5 halt.
func cboxWordProgram(comp *arch.Composition, word ctxgen.CBoxCtx) *ctxgen.Program {
	const slotA, slotB, slotW = 1, 2, 3
	p := &ctxgen.Program{
		Comp:   comp,
		NumCtx: 6,
		PE:     make([][]ctxgen.PECtx, comp.NumPEs()),
		CBox:   make([]ctxgen.CBoxCtx, 6),
		CCU: []ctxgen.CCUCtx{{}, {}, {},
			{Mode: ctxgen.CCUCondJump, Target: 5},
			{Mode: ctxgen.CCUJump, Target: 4},
			{Mode: ctxgen.CCUJump, Target: 5}},
		LiveIns:  []string{"xa", "xb", "xs"},
		LiveOuts: []string{"p", "j"},
		Homes: map[string]ctxgen.Home{
			"xa": {PE: 0, Addr: 0}, "xb": {PE: 0, Addr: 1}, "xs": {PE: 0, Addr: 2},
			"p": {PE: 1}, "j": {PE: 2},
		},
	}
	for i := range p.PE {
		p.PE[i] = make([]ctxgen.PECtx, p.NumCtx)
	}
	for c := 0; c < 3; c++ {
		p.PE[0][c] = ctxgen.PECtx{Op: arch.IFNE, AMode: ctxgen.SrcReg, AAddr: int32(c)}
	}
	p.CBox[0] = ctxgen.CBoxCtx{Consume: true, WriteAddr: slotA}
	p.CBox[1] = ctxgen.CBoxCtx{Consume: true, WriteAddr: slotB}
	word.AAddr, word.BAddr, word.WriteAddr = slotA, slotB, slotW
	p.CBox[2] = word
	p.PE[1][3] = ctxgen.PECtx{Op: arch.CONST, Imm: 1, WriteEnable: true, Predicated: true}
	p.CBox[3] = ctxgen.CBoxCtx{OutPEEnable: true, OutPEAddr: slotW, OutCtrlEnable: true, OutCtrlAddr: slotW, OutCtrlInv: true}
	p.PE[2][4] = ctxgen.PECtx{Op: arch.CONST, Imm: 1, WriteEnable: true}
	p.PE[2][5] = ctxgen.PECtx{Op: arch.CONST, Imm: 2, WriteEnable: true}
	return p
}

// TestEveryCBoxWordEveryWalk runs every C-Box word Predecode accepts — a
// consume, a recombine or both; every HasA/HasB and AInv/BInv; pass, AND
// and OR — on every value of the status and the two slots it can read,
// through the plain walk, the hooked walk with counters attached, RunBatch
// with one divergent lane per value, RunBatch with two identical lanes per
// value (which stay on the lane walk to the halt) and the reference
// interpreter. All
// must agree, so the decoded word keeps the reference interpreter's
// precedence, including on words the scheduler never emits and only a
// decoded artifact can carry. A consume of a status that never arrives
// must fail every walk with the reference's error, and a logic value
// outside pass, AND and OR is refused at predecode.
func TestEveryCBoxWordEveryWalk(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	if d := comp.PEs[0].Duration(arch.IFNE); d != 1 {
		t.Fatalf("%s: IFNE takes %d cycles on PE 0, want 1", comp.Name, d)
	}
	outcome := func(res *sim.Result, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("p=%d j=%d, %d cycles, energy %g", res.LiveOuts["p"], res.LiveOuts["j"], res.RunCycles, res.Energy)
	}
	var args []map[string]int32
	for v := int32(0); v < 8; v++ {
		args = append(args, map[string]int32{"xa": v & 1, "xb": v >> 1 & 1, "xs": v >> 2})
	}
	// walks runs prog with args on every walk and returns each outcome,
	// the reference interpreter's first.
	walks := func(prog *ctxgen.Program) [][5]string {
		eng, err := sim.Predecode(prog)
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]sim.BatchRequest, len(args))
		for i := range args {
			reqs[i] = sim.BatchRequest{Args: args[i], Host: ir.NewHost()}
		}
		lanes := eng.RunBatch(context.Background(), 0, reqs)
		out := make([][5]string, len(args))
		for i, a := range args {
			out[i][0] = outcome(sim.New(prog).RefRun(a, ir.NewHost()))
			out[i][1] = outcome(sim.New(prog).Run(a, ir.NewHost()))
			m := sim.New(prog)
			sim.AttachCounters(m)
			out[i][2] = outcome(m.Run(a, ir.NewHost()))
			out[i][3] = outcome(lanes[i].Res, lanes[i].Err)
			same := eng.RunBatch(context.Background(), 0, []sim.BatchRequest{{Args: a, Host: ir.NewHost()}, {Args: a, Host: ir.NewHost()}})
			out[i][4] = outcome(same[0].Res, same[0].Err)
			if o := outcome(same[1].Res, same[1].Err); o != out[i][4] {
				out[i][4] += "; lane 1: " + o
			}
		}
		return out
	}
	names := [5]string{"reference interpreter", "plain walk", "hooked walk", "RunBatch lane", "RunBatch identical lanes"}

	seen := map[string]bool{}
	for _, mode := range [][2]bool{{true, false}, {false, true}, {true, true}} {
		for bits := 0; bits < 16; bits++ {
			for _, logic := range []sched.CBLogic{sched.CBPass, sched.CBAnd, sched.CBOr} {
				word := ctxgen.CBoxCtx{
					Consume: mode[0], Recombine: mode[1], Logic: logic,
					HasA: bits&1 != 0, HasB: bits&2 != 0, AInv: bits&4 != 0, BInv: bits&8 != 0,
				}
				for i, got := range walks(cboxWordProgram(comp, word)) {
					seen[got[0]] = true
					for w := 1; w < len(got); w++ {
						if got[w] != got[0] {
							t.Errorf("word %+v, %v: %s gives %s, %s gives %s", word, args[i], names[w], got[w], names[0], got[0])
						}
					}
				}
			}
		}
	}
	// Both observations must see both values, else the check above is vacuous.
	for _, want := range []string{"p=1 j=1", "p=0 j=2"} {
		found := false
		for got := range seen {
			found = found || strings.HasPrefix(got, want)
		}
		if !found {
			t.Errorf("no run ended with %s; outcomes: %v", want, seen)
		}
	}

	missing := cboxWordProgram(comp, ctxgen.CBoxCtx{Consume: true, StatusPE: 3})
	const wantErr = "error: sim: ctx 2 consumes missing status of PE 3"
	for i, got := range walks(missing) {
		for w, g := range got {
			if g != wantErr {
				t.Errorf("missing status, %v: %s gives %s, want %s", args[i], names[w], g, wantErr)
			}
		}
	}

	undefined := cboxWordProgram(comp, ctxgen.CBoxCtx{Recombine: true, HasA: true, HasB: true, Logic: sched.CBOr + 1})
	_, err = sim.Predecode(undefined)
	if err == nil || !strings.Contains(err.Error(), "C-Box logic") {
		t.Errorf("Predecode of an undefined C-Box logic: %v", err)
	}
	if _, runErr := sim.New(undefined).Run(args[0], ir.NewHost()); err != nil && (runErr == nil || runErr.Error() != err.Error()) {
		t.Errorf("Machine.Run of an undefined C-Box logic: error %v, want %v", runErr, err)
	}
}
