package sim_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"cgra/internal/arch"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/pipeline"
	"cgra/internal/sim"
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
// and once in a batch that diverges before the first fault. The faults
// take the group from a contiguous lane range to scattered lanes mid-step.
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
