package opt_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/kgen"
	"cgra/internal/opt"
	"cgra/internal/workload"
)

// optGolden pins the kernels the optimizer emits: one line per kernel and
// unroll factor (constant folding and CSE on, as a compile runs them) with
// the sha256 of irtext.Print of the result and its statement count. A change
// meant to alter only how fast opt runs must leave it untouched; one meant
// to alter its output regenerates it (go test ./internal/opt -run
// TestOptGolden -update-opt) and the diff is what gets reviewed.
const optGolden = "testdata/opt_golden.txt"

var updateOpt = flag.Bool("update-opt", false, "rewrite "+optGolden+" from what opt.Apply emits at this commit")

// TestOptGolden recomputes every line of the golden file: the 12 library
// kernels and kgen kernels 0–199 at unroll 1 and 2.
func TestOptGolden(t *testing.T) {
	kernels := []*ir.Kernel{}
	for _, w := range workload.All() {
		kernels = append(kernels, w.Kernel)
	}
	kernels = append(kernels, adpcm.Kernel())
	for id := 0; id < 200; id++ {
		kernels = append(kernels, kgen.New(int64(id), kgen.Config{}).Kernel)
	}
	var lines []string
	for _, k := range kernels {
		for _, unroll := range []int{1, 2} {
			line := fmt.Sprintf("%s u=%d: ", k.Name, unroll)
			out, err := opt.Apply(k, opt.Options{UnrollFactor: unroll, CSE: true, ConstFold: true})
			if err != nil {
				line += "error: " + err.Error()
			} else {
				text := irtext.Print(out)
				line += fmt.Sprintf("%x %d lines", sha256.Sum256([]byte(text)), strings.Count(text, "\n"))
			}
			lines = append(lines, line)
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateOpt {
		if err := os.WriteFile(optGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(optGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d lines, golden file has %d", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("optimized kernel changed:\n  got  %s\n  want %s", lines[i], wantLines[i])
		}
	}
}
