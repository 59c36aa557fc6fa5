package ctxgen

import (
	"testing"

	"cgra/internal/arch"
	"cgra/internal/cdfg"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/sched"
)

// schedule builds and schedules src on comp.
func schedule(t *testing.T, src string, comp *arch.Composition) *sched.Schedule {
	t.Helper()
	g, err := cdfg.Build(mustParse(t, src), cdfg.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run(g, comp, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func generate(t *testing.T, src string, comp *arch.Composition) *Program {
	t.Helper()
	p, err := Generate(schedule(t, src, comp))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mesh(t *testing.T, n int) *arch.Composition {
	t.Helper()
	c, err := arch.HomogeneousMesh(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const loopSrc = `
kernel k(array a, in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) {
		v = a[i];
		if (v > 0) { s = s + v; }
		i = i + 1;
	}
}`

func TestGenerateShape(t *testing.T) {
	s := schedule(t, loopSrc, mesh(t, 4))
	p, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCtx != s.Length {
		t.Errorf("NumCtx %d != schedule length %d", p.NumCtx, s.Length)
	}
	if len(p.PE) != 4 {
		t.Fatalf("PE streams = %d", len(p.PE))
	}
	for pe, stream := range p.PE {
		if len(stream) != p.NumCtx {
			t.Errorf("PE %d stream length %d != %d", pe, len(stream), p.NumCtx)
		}
	}
	if len(p.CBox) != p.NumCtx || len(p.CCU) != p.NumCtx {
		t.Error("CBox/CCU stream lengths wrong")
	}
}

func TestGenerateOpsMatchSchedule(t *testing.T) {
	s := schedule(t, loopSrc, mesh(t, 4))
	p, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for pe := range p.PE {
		for _, ctx := range p.PE[pe] {
			if ctx.Op != arch.NOP {
				count++
			}
		}
	}
	if count != len(s.Ops) {
		t.Errorf("context ops %d != scheduled ops %d", count, len(s.Ops))
	}
}

func TestGenerateRoutingOutputs(t *testing.T) {
	s := schedule(t, loopSrc, mesh(t, 4))
	p, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	// Every SrcRoute read must have the source PE presenting the value.
	for _, op := range s.Ops {
		for _, src := range []sched.Src{op.A, op.B} {
			if src.Kind != sched.SrcRoute {
				continue
			}
			srcCtx := p.PE[src.FromPE][op.Cycle]
			if !srcCtx.OutlEnable {
				t.Errorf("op at c%d: source PE %d outl not enabled", op.Cycle, src.FromPE)
			}
			if int(srcCtx.OutlAddr) != src.Val.Addr {
				t.Errorf("op at c%d: outl addr %d != value addr %d", op.Cycle, srcCtx.OutlAddr, src.Val.Addr)
			}
			// The route input index must point back at the source.
			ctx := p.PE[op.PE][op.Cycle]
			var input int32
			if op.A == src {
				input = ctx.AInput
			} else {
				input = ctx.BInput
			}
			if got := p.Comp.PEs[op.PE].Inputs[input]; got != src.FromPE {
				t.Errorf("route input %d resolves to PE %d, want %d", input, got, src.FromPE)
			}
		}
	}
}

func TestGenerateCCUModes(t *testing.T) {
	p := generate(t, loopSrc, mesh(t, 4))
	jumps, condJumps := 0, 0
	for _, c := range p.CCU {
		switch c.Mode {
		case CCUJump:
			jumps++
		case CCUCondJump:
			condJumps++
		}
	}
	if jumps < 2 { // loop back jump + halt
		t.Errorf("unconditional jumps = %d, want >= 2", jumps)
	}
	if condJumps < 1 { // loop exit
		t.Errorf("conditional jumps = %d, want >= 1", condJumps)
	}
	// Every conditional jump must enable the branch-selection read.
	for cycle, c := range p.CCU {
		if c.Mode == CCUCondJump && !p.CBox[cycle].OutCtrlEnable {
			t.Errorf("cond jump at %d without outctrl", cycle)
		}
	}
}

func TestGeneratePredication(t *testing.T) {
	p := generate(t, loopSrc, mesh(t, 4))
	found := false
	for pe := range p.PE {
		for cycle, ctx := range p.PE[pe] {
			if ctx.Predicated {
				found = true
				if !p.CBox[cycle].OutPEEnable {
					t.Errorf("predicated op at c%d without outPE read", cycle)
				}
			}
		}
	}
	if !found {
		t.Error("no predicated contexts despite the conditional store")
	}
}

func TestGenerateFormatsReasonable(t *testing.T) {
	p := generate(t, loopSrc, mesh(t, 4))
	for i, f := range p.Formats {
		w := f.Width()
		if w <= 0 || w > 128 {
			t.Errorf("PE %d: context width %d implausible", i, w)
		}
		// Minimized address bits must cover the allocated registers.
		need := p.Alloc.RFUsage[i]
		if need > 0 && (1<<f.AAddrBits) < need {
			t.Errorf("PE %d: %d addr bits cannot address %d registers", i, f.AAddrBits, need)
		}
	}
	if p.TotalContextBits() <= 0 {
		t.Error("no context bits")
	}
	if p.CBoxWidth <= 0 || p.CCUWidth <= 0 {
		t.Error("C-Box/CCU widths missing")
	}
}

func TestGenerateBitMaskMinimization(t *testing.T) {
	// A kernel using few registers must yield narrower contexts than the
	// structural maximum (RF 128 -> 7 address bits).
	p := generate(t, `kernel k(in x, inout r) { r = x + 1; }`, mesh(t, 4))
	for i, f := range p.Formats {
		if f.AAddrBits >= 7 {
			t.Errorf("PE %d: address field not minimized (%d bits)", i, f.AAddrBits)
		}
	}
}

func TestGenerateRejectsOverlongSchedule(t *testing.T) {
	comp := mesh(t, 4)
	comp.ContextSize = 4 // absurdly small
	if _, err := Generate(schedule(t, loopSrc, comp)); err == nil {
		t.Error("schedule longer than the context memory accepted")
	}
}

func TestGenerateHaltIsSelfJump(t *testing.T) {
	p := generate(t, `kernel k(in x, inout r) { r = x; }`, mesh(t, 4))
	last := p.CCU[p.NumCtx-1]
	if last.Mode != CCUJump || last.Target != p.NumCtx-1 {
		t.Errorf("last context is not a self-jump halt: %+v", last)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	p := generate(t, loopSrc, mesh(t, 4))
	for pe := 0; pe < 4; pe++ {
		words, err := p.packPE(pe)
		if err != nil {
			t.Fatalf("pack PE %d: %v", pe, err)
		}
		if want := p.NumCtx * p.chunksPerWord(pe); len(words) != want {
			t.Fatalf("PE %d: %d chunks, want %d", pe, len(words), want)
		}
		back, err := p.unpackPE(pe, words)
		if err != nil {
			t.Fatalf("unpack PE %d: %v", pe, err)
		}
		for cyc := range back {
			want := p.PE[pe][cyc]
			got := back[cyc]
			// Fields of disabled paths may decode to zero values;
			// compare the meaningful ones.
			if got.Op != want.Op || got.AMode != want.AMode || got.BMode != want.BMode ||
				got.WriteEnable != want.WriteEnable || got.Predicated != want.Predicated ||
				got.OutlEnable != want.OutlEnable || got.Imm != want.Imm {
				t.Errorf("PE %d ctx %d: %+v != %+v", pe, cyc, got, want)
			}
			if got.WriteEnable && got.WriteAddr != want.WriteAddr {
				t.Errorf("PE %d ctx %d: write addr %d != %d", pe, cyc, got.WriteAddr, want.WriteAddr)
			}
			if got.AMode == SrcReg && got.AAddr != want.AAddr {
				t.Errorf("PE %d ctx %d: A addr differs", pe, cyc)
			}
			if got.OutlEnable && got.OutlAddr != want.OutlAddr {
				t.Errorf("PE %d ctx %d: outl addr differs", pe, cyc)
			}
		}
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
