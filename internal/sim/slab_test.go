package sim_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/arch"
	"cgra/internal/ctxgen"
	"cgra/internal/ir"
	"cgra/internal/pipeline"
	"cgra/internal/sim"
	"cgra/internal/workload"
)

// slabCase is one compiled kernel with inputs for the slab layout tests.
type slabCase struct {
	name string
	c    *pipeline.Compiled
	args map[string]int32
	host func() *ir.Host
}

// slabCases compiles the six sim_engine kernels (adpcm on 24 samples) on
// comp with the default options.
func slabCases(t *testing.T, comp *arch.Composition) []slabCase {
	t.Helper()
	var cs []slabCase
	for _, name := range []string{"fir", "matmul", "bsort", "gcd", "bitcount"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		size := w.DefaultSize
		cs = append(cs, slabCase{name, compileCell(t, name, w.Kernel, comp, pipeline.Defaults()),
			w.Args(size), func() *ir.Host { return w.Host(size) }})
	}
	const n = 24
	var enc adpcm.State
	codes, err := adpcm.Encode(adpcm.GenerateSamples(n), &enc)
	if err != nil {
		t.Fatal(err)
	}
	cs = append(cs, slabCase{"adpcm", compileCell(t, "adpcm", adpcm.Kernel(), comp, pipeline.Defaults()),
		adpcm.Args(n, adpcm.State{}), func() *ir.Host { return adpcm.NewHost(codes, n) }})
	return cs
}

func engineOf(t *testing.T, c *pipeline.Compiled) *sim.Decoded {
	t.Helper()
	eng, err := c.Engine()
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestSlabLayout pins the operand layout the walks read without a mode
// test: every SrcNone operand names the zero word just above the
// registers, every CONST's A operand names its own constant word holding
// its immediate, every other operand names a register, and no slot writes
// at or above the zero word.
func TestSlabLayout(t *testing.T) {
	for _, cn := range []string{"9 PEs", "8 PEs F"} {
		comp, err := arch.ByName(cn)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range slabCases(t, comp) {
			slots, rfTotal, consts := sim.Layout(engineOf(t, sc.c))
			zero := int32(rfTotal)
			used := make([]bool, len(consts))
			operand := func(s sim.SlotLayout, name string, mode ctxgen.SrcMode, off int32) {
				switch {
				case mode == ctxgen.SrcNone && off != zero:
					t.Errorf("%s/%s: PE %d ctx %d: absent operand %s reads word %d, want the zero word %d", cn, sc.name, s.PE, s.Ctx, name, off, zero)
				case mode != ctxgen.SrcNone && (off < 0 || off >= zero):
					t.Errorf("%s/%s: PE %d ctx %d: operand %s reads word %d outside the %d registers", cn, sc.name, s.PE, s.Ctx, name, off, rfTotal)
				}
			}
			for _, s := range slots {
				if s.WOff < 0 || s.WOff >= zero {
					t.Errorf("%s/%s: PE %d ctx %d writes word %d outside the %d registers", cn, sc.name, s.PE, s.Ctx, s.WOff, rfTotal)
				}
				if s.Op == arch.CONST {
					k := int(s.AOff - zero - 1)
					imm := sc.c.Program.PE[s.PE][s.Ctx].Imm
					switch {
					case k < 0 || k >= len(consts):
						t.Errorf("%s/%s: CONST on PE %d ctx %d reads word %d, not a constant word", cn, sc.name, s.PE, s.Ctx, s.AOff)
					case used[k]:
						t.Errorf("%s/%s: constant word %d read by two CONSTs", cn, sc.name, s.AOff)
					case consts[k] != imm:
						t.Errorf("%s/%s: CONST on PE %d ctx %d: word %d holds %d, want %d", cn, sc.name, s.PE, s.Ctx, s.AOff, consts[k], imm)
					default:
						used[k] = true
					}
				} else {
					operand(s, "A", s.AMode, s.AOff)
				}
				operand(s, "B", s.BMode, s.BOff)
			}
			for k, u := range used {
				if !u {
					t.Errorf("%s/%s: constant word %d belongs to no CONST", cn, sc.name, int(zero)+1+k)
				}
			}
		}
	}
}

// checkWords checks the zero and constant rows of a slab with the given
// lane stride, and that every register row in used is zero.
func checkWords(t *testing.T, what string, rf []int32, stride, rfTotal int, consts []int32, used []int32) {
	t.Helper()
	if want := (rfTotal + 1 + len(consts)) * stride; len(rf) != want {
		t.Fatalf("%s: slab holds %d words, want %d", what, len(rf), want)
	}
	row := func(w int) []int32 { return rf[w*stride : (w+1)*stride] }
	for w := 0; w <= rfTotal+len(consts); w++ {
		want := int32(0)
		switch {
		case w > rfTotal:
			want = consts[w-rfTotal-1]
		case w < rfTotal && !slices.Contains(used, int32(w)):
			continue
		}
		for l, v := range row(w) {
			if v != want {
				t.Errorf("%s: word %d lane %d holds %d, want %d", what, w, l, v, want)
				return
			}
		}
	}
}

// TestSlabWordsSurviveRuns runs each kernel plain, hooked and as lanes and
// checks that no walk wrote the zero or a constant word, and that drawing
// a pooled state for the next run clears the registers it uses and
// restores both kinds of word, even after they were overwritten. Registers
// outside Decoded.used are never read (TestUsedCoversSlab), so a draw
// leaves them as they were.
func TestSlabWordsSurviveRuns(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range slabCases(t, comp) {
		eng := engineOf(t, sc.c)
		_, rfTotal, consts := sim.Layout(eng)
		used := sim.Used(eng)
		m := sc.c.Machine()
		if _, err := m.Run(sc.args, sc.host()); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		checkWords(t, sc.name+" after a plain run", sim.LeftSlab(eng), 1, rfTotal, consts, nil)
		m.Probe = func(sim.Event) {}
		if _, err := m.Run(sc.args, sc.host()); err != nil {
			t.Fatalf("%s: hooked: %v", sc.name, err)
		}
		checkWords(t, sc.name+" after a hooked run", sim.LeftSlab(eng), 1, rfTotal, consts, nil)
		if !sim.ScribbleSlab(eng) {
			t.Fatalf("%s: no run state in the ready slot", sc.name)
		}
		rf, stride := sim.DrawnSlab(eng, 1)
		checkWords(t, sc.name+" drawn after a scribble", rf, stride, rfTotal, consts, used)

		reqs := []sim.BatchRequest{{Args: sc.args, Host: sc.host()}, {Args: sc.args, Host: sc.host()}, {Args: sc.args, Host: sc.host()}}
		for i, o := range eng.RunBatch(context.Background(), 0, reqs) {
			if o.Err != nil {
				t.Fatalf("%s: lane %d: %v", sc.name, i, o.Err)
			}
		}
		// A pool may drop its item (always possible under the race detector).
		if rf, stride := sim.LeftLaneSlab(eng); rf != nil {
			checkWords(t, sc.name+" after a batch", rf, stride, rfTotal, consts, nil)
		}
		rf, stride = sim.DrawnSlab(eng, 3)
		checkWords(t, sc.name+" lanes drawn", rf, stride, rfTotal, consts, used)
		rf, stride = sim.DrawnSlab(eng, 3)
		checkWords(t, sc.name+" lanes drawn after a scribble", rf, stride, rfTotal, consts, used)
	}
}

// TestUsedCoversSlab checks the invariant that lets a drawn state clear
// only the registers in Decoded.used: on every refCorpus cell, each slot's
// operands and write offset and each live-in and live-out home is in used
// or lies above the registers, on the zero or a constant word.
func TestUsedCoversSlab(t *testing.T) {
	for _, c := range refCorpus(t, []string{"9 PEs", "8 PEs F"}, 32) {
		d, err := sim.Predecode(c.prog)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		slots, rfTotal, _ := sim.Layout(d)
		used := sim.Used(d)
		check := func(what string, off int32) {
			if _, ok := slices.BinarySearch(used, off); !ok && off < int32(rfTotal) {
				t.Errorf("%s: %s names register %d, which is not in used", c.name, what, off)
			}
		}
		for _, s := range slots {
			at := fmt.Sprintf("PE %d ctx %d", s.PE, s.Ctx)
			check(at+" operand A", s.AOff)
			check(at+" operand B", s.BOff)
			check(at+" write", s.WOff)
		}
		for _, off := range sim.Homes(d) {
			check("a home", off)
		}
	}
}

// TestShapedSlotsDominate tallies the issued slots of the sim_engine
// kernels by shape. The four shapes the hook-free walks run without a
// further test are why shapes exist; if predecode stopped giving most
// issued slots one, the walks would fall back to the general path unseen.
func TestShapedSlotsDominate(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{sim.ShapeALU: "direct ALU", sim.ShapeCompare: "compare",
		sim.ShapePredALU: "predicated direct ALU", sim.ShapeLoad: "direct load", sim.ShapeOther: "other"}
	total := make([]int, len(names))
	for _, sc := range slabCases(t, comp) {
		slots, _, _ := sim.Layout(engineOf(t, sc.c))
		type at struct{ pe, ctx int }
		shape := map[at]int{}
		for _, s := range slots {
			shape[at{s.PE, s.Ctx}] = s.Shape
		}
		issued := make([]int, len(names))
		m := sc.c.Machine()
		m.Probe = func(ev sim.Event) {
			if ev.Kind == sim.EvIssue {
				issued[shape[at{ev.PE, ev.CCNT}]]++
			}
		}
		res, err := m.Run(sc.args, sc.host())
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		n := 0
		for s, k := range issued {
			n += k
			total[s] += k
		}
		t.Logf("%-8s %5d cycles, %5d issued: %v", sc.name, res.RunCycles, n, issued)
	}
	n := 0
	for _, k := range total {
		n += k
	}
	for s, k := range total {
		t.Logf("%-22s %5.1f %%", names[s], 100*float64(k)/float64(n))
	}
	if other := float64(total[sim.ShapeOther]) / float64(n); other > 0.25 {
		t.Errorf("%.0f %% of issued slots take the general path, want at most 25 %%", 100*other)
	}
}
