package sim_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cgra/internal/arch"
	"cgra/internal/ctxgen"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/pipeline"
	"cgra/internal/sim"
	"cgra/internal/workload"
)

// faultKernel reads a, which nothing stores (resolved loads, which fault
// at issue in the lane walk), and reads and writes b (loads and stores
// that fault at commit), branching on the data it reads. p and q are
// independent work the scheduler packs into the contexts of the loads.
const faultKernel = `
kernel lanefault(array a, array b, in n, in t, inout s, inout p, inout q) {
	s = 0;
	for (i = 0; i < n; i = i + 1) {
		x = a[i];
		p = p * 3 + i;
		q = q ^ (p >> 2);
		if (x > t) { s = s + x; } else { s = s - q; }
		b[i] = b[i] + s;
	}
}`

// laneCase is one lane's inputs; cut truncates a (cutA) or b (cutB) so the
// lane's DMA goes out of range at that index, 0 for a lane that finishes.
type laneCase struct {
	n, t       int32
	seed       int32
	cutA, cutB int
}

func (lc laneCase) inputs() (map[string]int32, *ir.Host) {
	h := ir.NewHost()
	a, b := make([]int32, 16), make([]int32, 16)
	for i := range a {
		a[i] = (lc.seed*7 + int32(i)*13) % 23
		b[i] = int32(i) - lc.seed
	}
	if lc.cutA > 0 {
		a = a[:lc.cutA]
	}
	if lc.cutB > 0 {
		b = b[:lc.cutB]
	}
	h.Arrays["a"], h.Arrays["b"] = a, b
	return map[string]int32{"n": lc.n, "t": lc.t, "s": 0, "p": lc.seed, "q": 1}, h
}

// TestLanesFaultAtEveryPosition faults the first, a middle and the last of
// nine lanes, each at a different cycle, once in a batch that stays uniform
// and once in a batch that diverges before the first fault. In the uniform
// batch the first fault ends the lane walk mid-loop, and the other lanes
// finish on the production walk with their commits still in flight; in
// the divergent batch the first split does, and the faults land there.
// Every lane must match its scalar run: a surviving lane on cycles,
// energy, live-outs and heap, a faulting lane on its error.
func TestLanesFaultAtEveryPosition(t *testing.T) {
	k, err := irtext.Parse(faultKernel)
	if err != nil {
		t.Fatal(err)
	}
	for _, cn := range []string{"4 PEs", "9 PEs", "16 PEs", "8 PEs F"} {
		comp, err := arch.ByName(cn)
		if err != nil {
			t.Fatal(err)
		}
		c := compileCell(t, cn, k, comp, pipeline.Defaults())
		uniform := make([]laneCase, 9)
		for l := range uniform {
			uniform[l] = laneCase{n: 12, t: 9, seed: 3}
		}
		// The last lane faults first and the middle one next, so a stale
		// lane range would skip a survivor (lane 7) for the rest of a step;
		// on 4 and 16 PEs the loads share their contexts with ALU slots.
		uniform[8].cutA, uniform[4].cutA, uniform[0].cutA = 2, 5, 9
		divergent := make([]laneCase, 9)
		for l := range divergent {
			divergent[l] = laneCase{n: 10 + int32(l%3), t: int32(l * 2), seed: int32(l)}
		}
		divergent[2].n, divergent[5].n = 1, 2 // leave the loop before any fault
		divergent[8].cutA, divergent[4].cutA, divergent[0].cutB = 4, 6, 9
		t.Run(cn+"/uniform", func(t *testing.T) { checkLaneFaults(t, c, uniform, false) })
		t.Run(cn+"/divergent", func(t *testing.T) { checkLaneFaults(t, c, divergent, true) })
	}
}

func checkLaneFaults(t *testing.T, c *pipeline.Compiled, lanes []laneCase, diverge bool) {
	eng, err := c.Engine()
	if err != nil {
		t.Fatal(err)
	}
	type scalar struct {
		res   *sim.Result
		err   error
		host  *ir.Host
		cycle int64 // the last cycle with an event: where a fault ended the run
	}
	want := make([]scalar, len(lanes))
	reqs := make([]sim.BatchRequest, len(lanes))
	for l, lc := range lanes {
		args, host := lc.inputs()
		reqs[l] = sim.BatchRequest{Args: args, Host: host}
		_, h := lc.inputs()
		m := c.Machine()
		w := &want[l]
		m.Probe = func(ev sim.Event) { w.cycle = ev.Cycle }
		w.res, w.err = m.Run(args, h)
		w.host = h
		if plain, err := c.Machine().Run(lc.inputs()); fmt.Sprint(err) != fmt.Sprint(w.err) || !reflect.DeepEqual(plain, w.res) {
			t.Fatalf("lane %d: plain and hooked scalar runs disagree: %v / %v", l, err, w.err)
		}
	}
	faultAt, finishAt := map[int64]bool{}, int64(-1)
	firstFault := int64(1 << 62)
	for l, lc := range lanes {
		if faults := lc.cutA > 0 || lc.cutB > 0; faults != (want[l].err != nil) {
			t.Fatalf("lane %d: scalar run error %v, cut %d/%d", l, want[l].err, lc.cutA, lc.cutB)
		}
		if want[l].err != nil {
			faultAt[want[l].cycle] = true
			firstFault = min(firstFault, want[l].cycle)
		} else if finishAt < 0 || want[l].res.RunCycles < finishAt {
			finishAt = want[l].res.RunCycles
		}
	}
	if len(faultAt) != 3 {
		t.Fatalf("the three faults fall on %d distinct cycles, want 3", len(faultAt))
	}
	if diverge != (finishAt <= firstFault) {
		t.Fatalf("first lane finishes at cycle %d, first fault at cycle %d: the batch does not diverge=%v first", finishAt, firstFault, diverge)
	}

	for l, o := range eng.RunBatch(context.Background(), 0, reqs) {
		w := want[l]
		switch {
		case w.err != nil:
			if o.Err == nil || o.Err.Error() != w.err.Error() {
				t.Errorf("lane %d: error %v, want %v", l, o.Err, w.err)
			}
		case o.Err != nil:
			t.Errorf("lane %d: %v", l, o.Err)
		case !reflect.DeepEqual(o.Res, w.res):
			t.Errorf("lane %d: %+v, want %+v", l, o.Res, w.res)
		case !reqs[l].Host.Equal(w.host):
			t.Errorf("lane %d: heap differs from the scalar run's", l)
		}
	}
}

// handOffProgram hand-builds a six-context program on comp whose lanes
// split at context 2 on xs, after a condition stored at context 1 and
// before a status that arrives at context 3 is consumed. Context 0 stores
// xs != 0 in slot 2 and context 1 xa != 0 in slot 1. Context 2 issues
// xb != 0 on PE 2, a 2-cycle compare, and branches on slot 2: to context 4
// when it is true, else to context 3. Contexts 3 and 4 each consume PE 2's
// status into slot 3 and write p (1 or 2) predicated on slot 1; context 5
// writes q = 1 predicated on slot 3 and halts.
func handOffProgram(comp *arch.Composition) *ctxgen.Program {
	p := &ctxgen.Program{
		Comp:   comp,
		NumCtx: 6,
		PE:     make([][]ctxgen.PECtx, comp.NumPEs()),
		CBox: []ctxgen.CBoxCtx{
			{Consume: true, StatusPE: 1, WriteAddr: 2},
			{Consume: true, StatusPE: 0, WriteAddr: 1},
			{OutCtrlEnable: true, OutCtrlAddr: 2},
			{Consume: true, StatusPE: 2, WriteAddr: 3, OutPEEnable: true, OutPEAddr: 1},
			{Consume: true, StatusPE: 2, WriteAddr: 3, OutPEEnable: true, OutPEAddr: 1},
			{OutPEEnable: true, OutPEAddr: 3},
		},
		CCU: []ctxgen.CCUCtx{{}, {},
			{Mode: ctxgen.CCUCondJump, Target: 4},
			{Mode: ctxgen.CCUJump, Target: 5},
			{Mode: ctxgen.CCUJump, Target: 5},
			{Mode: ctxgen.CCUJump, Target: 5}},
		LiveIns:  []string{"xa", "xb", "xs"},
		LiveOuts: []string{"p", "q"},
		Homes: map[string]ctxgen.Home{
			"xa": {PE: 0}, "xs": {PE: 1}, "xb": {PE: 2}, "p": {PE: 3}, "q": {PE: 4},
		},
	}
	for i := range p.PE {
		p.PE[i] = make([]ctxgen.PECtx, p.NumCtx)
	}
	p.PE[1][0] = ctxgen.PECtx{Op: arch.IFNE, AMode: ctxgen.SrcReg}
	p.PE[0][1] = ctxgen.PECtx{Op: arch.IFNE, AMode: ctxgen.SrcReg}
	p.PE[2][2] = ctxgen.PECtx{Op: arch.IFNE, AMode: ctxgen.SrcReg}
	p.PE[3][3] = ctxgen.PECtx{Op: arch.CONST, Imm: 1, WriteEnable: true, Predicated: true}
	p.PE[3][4] = ctxgen.PECtx{Op: arch.CONST, Imm: 2, WriteEnable: true, Predicated: true}
	p.PE[4][5] = ctxgen.PECtx{Op: arch.CONST, Imm: 1, WriteEnable: true, Predicated: true}
	return p
}

// TestLanesHandOffMovesConditionState splits a batch of eight lanes, one
// per value of xa, xb and xs, at a branch between a condition the batch
// stored and its use, and between a compare's issue and its status's
// arrival (handOffProgram). Every lane must leave the lane walk with its
// condition memory and status arrivals and match its scalar runs. No
// composition the repository names has a multi-cycle compare, so PE 2's
// IFNE is made to take two cycles.
func TestLanesHandOffMovesConditionState(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	info := comp.PEs[2].Ops[arch.IFNE]
	info.Duration = 2
	comp.PEs[2].Ops[arch.IFNE] = info
	prog := handOffProgram(comp)
	eng, err := sim.Predecode(prog)
	if err != nil {
		t.Fatal(err)
	}
	outcome := func(res *sim.Result, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("p=%d q=%d, %d cycles, energy %g", res.LiveOuts["p"], res.LiveOuts["q"], res.RunCycles, res.Energy)
	}
	var reqs []sim.BatchRequest
	for v := int32(0); v < 8; v++ {
		reqs = append(reqs, sim.BatchRequest{Args: map[string]int32{"xa": v & 1, "xb": v >> 1 & 1, "xs": v >> 2}, Host: ir.NewHost()})
	}
	seen := map[string]bool{}
	for l, o := range eng.RunBatch(context.Background(), 0, reqs) {
		want := outcome(sim.New(prog).RefRun(reqs[l].Args, ir.NewHost()))
		pq, _, _ := strings.Cut(want, ",")
		seen[pq] = true
		if got := outcome(sim.New(prog).Run(reqs[l].Args, ir.NewHost())); got != want {
			t.Errorf("%v: plain walk gives %s, reference %s", reqs[l].Args, got, want)
		}
		if got := outcome(o.Res, o.Err); got != want {
			t.Errorf("%v: RunBatch lane gives %s, reference %s", reqs[l].Args, got, want)
		}
	}
	// p is 0 when xa is 0 and else 1 or 2 as xs picks, q is xb: all six
	// endings must show, else a lost condition or status could go unseen.
	for _, p := range []string{"p=0 q=0", "p=0 q=1", "p=1 q=0", "p=1 q=1", "p=2 q=0", "p=2 q=1"} {
		if !seen[p] {
			t.Errorf("no lane ends with %s: %v", p, seen)
		}
	}
}

// BenchmarkRunBatch runs 16-lane batches on 9 PEs, one sub-benchmark per
// input mix and kernel. "identical" lanes all take the kernel's default
// inputs, as the sim_engine workload's run16 arm does, and stay on the
// lane walk to the halt. "divergent" lanes take sizes mixed around the
// default (gcd varies its operands), so they split at their first
// data-dependent branch and finish on the production walk. Each batch
// runs on fresh clones of the lanes' heaps, cloned inside the timer.
func BenchmarkRunBatch(b *testing.B) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		b.Fatal(err)
	}
	for _, mix := range []string{"identical", "divergent"} {
		for _, name := range []string{"gcd", "bsort", "fir", "bitcount", "matmul", "crc8"} {
			w, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := compileCell(b, name, w.Kernel, comp, pipeline.Defaults()).Engine()
			if err != nil {
				b.Fatal(err)
			}
			reqs := make([]sim.BatchRequest, 16)
			hosts := make([]*ir.Host, len(reqs))
			for l := range reqs {
				size := w.DefaultSize
				if mix == "divergent" {
					size = max(3, w.DefaultSize+l%7-2)
				}
				reqs[l].Args, hosts[l] = w.Args(size), w.Host(size)
				if mix == "divergent" && name == "gcd" {
					reqs[l].Args = map[string]int32{"a": int32(1071 + 13*l), "b": int32(462 + 7*l)}
				}
			}
			b.Run(mix+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for l := range reqs {
						reqs[l].Host = hosts[l].Clone()
					}
					for _, o := range eng.RunBatch(context.Background(), 0, reqs) {
						if o.Err != nil {
							b.Fatal(o.Err)
						}
					}
				}
			})
		}
	}
}
