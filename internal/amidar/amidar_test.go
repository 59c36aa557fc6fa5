package amidar

import (
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/workload"
)

// TestADPCMCalibration pins the cost model to the paper's baseline: the
// ADPCM decoder over 416 samples must cost ~926 k AMIDAR cycles (§VI-A).
func TestADPCMCalibration(t *testing.T) {
	samples := adpcm.GenerateSamples(adpcm.NumSamples)
	var enc adpcm.State
	codes, err := adpcm.Encode(samples, &enc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(adpcm.Kernel(), DefaultCostModel(),
		adpcm.Args(adpcm.NumSamples, adpcm.State{}), adpcm.NewHost(codes, adpcm.NumSamples))
	if err != nil {
		t.Fatal(err)
	}
	const paper = 926_000
	dev := float64(res.Cycles-paper) / paper
	if dev < 0 {
		dev = -dev
	}
	t.Logf("AMIDAR ADPCM baseline: %d cycles (paper: 926k, deviation %.2f%%)", res.Cycles, dev*100)
	if dev > 0.02 {
		t.Errorf("calibration off by %.1f%% (got %d cycles, want ~926k)", dev*100, res.Cycles)
	}
}

func TestExecuteReturnsLiveOuts(t *testing.T) {
	k := mustParse(t, `kernel k(in x, inout r) { r = x * 2; }`)
	res, err := Execute(k, DefaultCostModel(), map[string]int32{"x": 21, "r": 0}, ir.NewHost())
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveOuts["r"] != 42 {
		t.Errorf("r = %d", res.LiveOuts["r"])
	}
	if res.Cycles <= 0 {
		t.Error("no cycles")
	}
}

func TestCostModelMonotonic(t *testing.T) {
	// More work must never cost fewer cycles.
	small := workload.FIR()
	cm := DefaultCostModel()
	r1, err := Execute(small.Kernel, cm, small.Args(8), small.Host(8))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Execute(small.Kernel, cm, small.Args(64), small.Host(64))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cycles <= r1.Cycles {
		t.Errorf("64-sample FIR (%d) not costlier than 8-sample (%d)", r2.Cycles, r1.Cycles)
	}
}

func TestExecuteProgramWithCalls(t *testing.T) {
	prog, err := irtext.ParseProgram(`
kernel main(inout r) {
	double(r);
	double(r);
}
kernel double(inout x) { x = x * 2; }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteProgram(prog.EntryKernel(), prog.Kernels, DefaultCostModel(),
		map[string]int32{"r": 3}, ir.NewHost())
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveOuts["r"] != 12 {
		t.Errorf("r = %d, want 12", res.LiveOuts["r"])
	}
	if res.Stats.Calls != 2 {
		t.Errorf("calls = %d, want 2", res.Stats.Calls)
	}
	// Calls carry invocation overhead in the cost model.
	cm := DefaultCostModel()
	if cm.Cycles(&res.Stats) <= cm.Cycles(&ir.OpStats{Mul: res.Stats.Mul, LocalWr: res.Stats.LocalWr, LocalRd: res.Stats.LocalRd}) {
		t.Error("call overhead not priced")
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
