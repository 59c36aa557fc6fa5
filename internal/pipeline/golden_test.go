package pipeline

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/arch"
	"cgra/internal/ir"
	"cgra/internal/kgen"
	"cgra/internal/sched"
	"cgra/internal/workload"
)

// goldenFile pins what both scheduler backends build for a fixed set of
// cells: one line per cell with the sha256 of the generated contexts, the
// verified cycle count and the scheduler's Stats counters (which the
// contexts alone do not pin). A change that means to alter schedules
// regenerates it (go test ./internal/pipeline -run TestScheduleGolden
// -update-golden) and the diff of this file is what gets reviewed; a change
// that means to alter only speed must leave it untouched.
const goldenFile = "testdata/schedule_golden.txt"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenFile+" from the schedules this commit builds")

type goldenCase struct {
	name   string
	kernel *ir.Kernel
	args   map[string]int32
	host   *ir.Host
}

// libraryGoldenCases are the eleven library workloads and the paper's ADPCM
// decoder on its 416-sample vector.
func libraryGoldenCases(t testing.TB) []goldenCase {
	var out []goldenCase
	for _, w := range workload.All() {
		out = append(out, goldenCase{w.Name, w.Kernel, w.Args(w.DefaultSize), w.Host(w.DefaultSize)})
	}
	var enc adpcm.State
	codes, err := adpcm.Encode(adpcm.GenerateSamples(adpcm.NumSamples), &enc)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, goldenCase{"adpcm", adpcm.Kernel(), adpcm.Args(adpcm.NumSamples, adpcm.State{}), adpcm.NewHost(codes, adpcm.NumSamples)})
}

func generatedGoldenCases(n int, postClause bool) []goldenCase {
	var out []goldenCase
	for id := 0; id < n; id++ {
		g := kgen.New(int64(id), kgen.Config{})
		if postClause {
			g.Kernel.Body = kgen.IncrementInPost(g.Kernel.Body)
		}
		out = append(out, goldenCase{g.Kernel.Name, g.Kernel, g.Args, g.NewHost()})
	}
	return out
}

// goldenOutcome compiles one cell and renders what it built: the contexts'
// digest, the cycle count of a run checked against the interpreter and the
// schedule's Stats, or the reason there is none.
func goldenOutcome(c goldenCase, comp *arch.Composition, backend string) string {
	o := Defaults()
	o.Backend = backend
	out, err := Compile(c.kernel, comp, o)
	if err != nil {
		return "declined: " + err.Error()
	}
	res, err := CheckAgainstInterpreter(c.kernel, out, c.args, c.host)
	if err != nil {
		return "wrong: " + err.Error()
	}
	h := sha256.New()
	p := out.Program
	fmt.Fprint(h, p.NumCtx, p.PE, p.CBox, p.CCU)
	st := out.Schedule.Stats
	return fmt.Sprintf("%x %d copies=%d consts=%d fused=%d unfused=%d cbox=%d nodes=%d pipelined=%d",
		h.Sum(nil), res.Sim.TotalCycles(), st.CopiesInserted, st.ConstsMaterialized,
		st.FusedPWrites, st.UnfusedPWrites, st.CBoxOps, st.Nodes, st.PipelinedLoops)
}

// TestScheduleGolden recomputes every cell of the golden file: the 12
// library kernels on five compositions and kgen kernels 0–63 on two, under
// both backends.
func TestScheduleGolden(t *testing.T) {
	var lines []string
	for _, set := range []struct {
		cases []goldenCase
		comps []string
	}{
		{libraryGoldenCases(t), []string{"4 PEs", "9 PEs", "16 PEs", "8 PEs B", "8 PEs F"}},
		{generatedGoldenCases(64, false), []string{"9 PEs", "8 PEs F"}},
	} {
		for _, name := range set.comps {
			comp, err := arch.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range set.cases {
				for _, backend := range []string{sched.BackendList, sched.BackendModulo} {
					lines = append(lines, fmt.Sprintf("%s %s@%s: %s", backend, c.name, strings.ReplaceAll(name, " ", "_"), goldenOutcome(c, comp, backend)))
				}
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d cells, golden file has %d", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("schedule changed:\n  got  %s\n  want %s", lines[i], wantLines[i])
		}
	}
}

// TestModuloDeterministicOnGeneratedLoops compiles kgen kernels 0–127, with
// the counter increment in the post clause so their loops reach the
// pipeliner, eight times each on "9 PEs", "16 PEs" and "8 PEs B" — the
// compositions where the solver builds routing-copy chains — and requires
// the same outcome every time: same contexts and cycles, or the same
// refusal. Every kernel that flips is reported by name.
func TestModuloDeterministicOnGeneratedLoops(t *testing.T) {
	cases := generatedGoldenCases(128, true)
	for _, name := range []string{"9 PEs", "16 PEs", "8 PEs B"} {
		comp, err := arch.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			first := goldenOutcome(c, comp, sched.BackendModulo)
			for i := 1; i < 8; i++ {
				if again := goldenOutcome(c, comp, sched.BackendModulo); again != first {
					t.Errorf("%s on %s: compile %d differs from the first:\n  %s\n  %s", c.name, name, i+1, again, first)
					break
				}
			}
		}
	}
}
