package sim_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"cgra/internal/arch"
	"cgra/internal/cdfg"
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
		Sched:  &sched.Schedule{Comp: comp, Graph: &cdfg.Graph{}, Length: 1},
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
// attached, RunBatch with three lanes on different inputs, and the
// reference interpreter. All must equal ir.Interp on live-outs and heap.
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

			h = host(i)
			res, err = sim.New(c.Program).RefRun(args(i), h)
			check("reference interpreter", res, err, h)
		}
	}
}
