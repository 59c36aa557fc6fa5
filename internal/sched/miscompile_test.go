package sched_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cgra/internal/arch"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/kgen"
	"cgra/internal/pipeline"
	"cgra/internal/sched"
	"cgra/internal/sim"
)

// The tests below guard three miscompiles that show where speculation,
// predication and loops meet, each with attraction on (the default):
//   - a copy of a local placed before an issued write of that local
//     (provisionOperand waits for the local's written cycle);
//   - a value live across a back edge losing its register in the
//     back-jump cycle (alloc extends such lifetimes one cycle past it);
//   - a provisional copy landing past its block's end (copyHop raises
//     the block's end).

// arms are the three ways a kgen kernel is compiled: the list scheduler at
// unroll 2 and 1, and the modulo scheduler with the counter increment moved
// into the post clause, so its loops reach the pipeliner.
var arms = []string{"list2", "list1", "modulo"}

// armOptions returns the compile options of arm; a modulo arm's kernel
// also needs kgen.IncrementInPost.
func armOptions(arm string) pipeline.Options {
	o := pipeline.Defaults()
	switch arm {
	case "list1":
		o.UnrollFactor = 1
	case "modulo":
		o.Backend = sched.BackendModulo
	}
	return o
}

// armCompile compiles kgen kernel id on comp under arm.
func armCompile(id int64, comp *arch.Composition, arm string) (*kgen.Generated, *pipeline.Compiled, error) {
	g := kgen.New(id, kgen.Config{})
	if arm == "modulo" {
		g.Kernel.Body = kgen.IncrementInPost(g.Kernel.Body)
	}
	c, err := pipeline.Compile(g.Kernel, comp, armOptions(arm))
	return g, c, err
}

// contextOverflow reports a compile refused because the schedule does not
// fit the context memories: a limit of the array, not a miscompile.
func contextOverflow(err error) bool { return strings.Contains(err.Error(), "memory holds") }

// checkEveryWalk runs c on the plain walk, the hooked walk and as a
// two-lane RunBatch, and holds each to the interpreter's live-outs and heap.
func checkEveryWalk(k *ir.Kernel, c *pipeline.Compiled, args map[string]int32, host *ir.Host) error {
	refHost := host.Clone()
	ref, err := (&ir.Interp{}).Run(k, args, refHost)
	if err != nil {
		return fmt.Errorf("interpreter: %v", err)
	}
	plainHost := host.Clone()
	res, err := c.Run(args, plainHost)
	if err == nil {
		err = ir.Compare(ref, refHost, res.LiveOuts, plainHost)
	}
	if err != nil {
		return fmt.Errorf("plain walk: %v", err)
	}
	m := c.Machine()
	m.Probe = func(sim.Event) {}
	hookedHost := host.Clone()
	if res, err = m.Run(args, hookedHost); err == nil {
		err = ir.Compare(ref, refHost, res.LiveOuts, hookedHost)
	}
	if err != nil {
		return fmt.Errorf("hooked walk: %v", err)
	}
	eng, err := c.Engine()
	if err != nil {
		return err
	}
	reqs := []sim.BatchRequest{{Args: args, Host: host.Clone()}, {Args: args, Host: host.Clone()}}
	for i, o := range eng.RunBatch(context.Background(), 0, reqs) {
		err := o.Err
		if err == nil {
			err = ir.Compare(ref, refHost, o.Res.LiveOuts, reqs[i].Host)
		}
		if err != nil {
			return fmt.Errorf("batch lane %d: %v", i, err)
		}
	}
	return nil
}

// TestMiscompileCells holds every cell that gave a wrong answer or was
// refused by Verify before the three fixes to the interpreter, on every
// walk and under every arm. A context-memory overflow is the one refusal
// allowed.
func TestMiscompileCells(t *testing.T) {
	cells := []struct {
		id   int64
		comp string
	}{
		{2616, "16 PEs"}, {2616, "8 PEs B"}, {2616, "8 PEs D"}, {2616, "8 PEs F"}, // copy before write
		{2814, "8 PEs A"}, {987654323677, "8 PEs D"}, {987654323677, "8 PEs F"}, // copy before write
		{987654323193, "9 PEs"},                                // copy before write
		{790, "8 PEs A"}, {3913, "8 PEs A"}, {3913, "8 PEs B"}, // back-jump cycle
		{3621, "4 PEs"}, {1417, "16 PEs"}, {2502, "8 PEs B"}, // copy past the block
	}
	for _, cell := range cells {
		comp, err := arch.ByName(cell.comp)
		if err != nil {
			t.Fatal(err)
		}
		for _, arm := range arms {
			g, c, err := armCompile(cell.id, comp, arm)
			if err != nil {
				if !contextOverflow(err) {
					t.Errorf("%d on %s, %s: refused: %v", cell.id, cell.comp, arm, err)
				}
				continue
			}
			if err := checkEveryWalk(g.Kernel, c, g.Args, g.NewHost()); err != nil {
				t.Errorf("%d on %s, %s: %v", cell.id, cell.comp, arm, err)
			}
		}
	}
}

// TestMiscompileSweep compiles kgen kernels 0–511 on seven compositions
// under every arm and requires 0 wrong answers and 0 refusals other than
// context-memory overflows. It runs ids 0–63 under the race detector and
// is skipped with -short.
func TestMiscompileSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	ids := int64(512)
	if raceEnabled {
		ids = 64
	}
	for _, name := range []string{"4 PEs", "9 PEs", "16 PEs", "8 PEs A", "8 PEs B", "8 PEs D", "8 PEs F"} {
		comp, err := arch.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(strings.ReplaceAll(name, " ", "_"), func(t *testing.T) {
			t.Parallel()
			overflows := 0
			for id := range ids {
				for _, arm := range arms {
					g, c, err := armCompile(id, comp, arm)
					switch {
					case err != nil && contextOverflow(err):
						overflows++
					case err != nil:
						t.Errorf("%d, %s: refused: %v", id, arm, err)
					default:
						if _, err := pipeline.CheckAgainstInterpreter(g.Kernel, c, g.Args, g.NewHost()); err != nil {
							t.Errorf("%d, %s: %v", id, arm, err)
						}
					}
				}
			}
			t.Logf("%d cells, %d context-memory overflows", ids*int64(len(arms)), overflows)
		})
	}
}

// TestMiscompileMinimized compiles each minimized kernel under
// testdata/miscompile-*.k, one per mechanism, and holds it to the
// interpreter on every walk. A case's header comments name its
// composition ("// comp: 9 PEs"), its arm ("// arm: list2"), and the
// value of each parameter: a scalar's ("// p: 977") and an array's
// contents ("// m0: 143 -148 35").
func TestMiscompileMinimized(t *testing.T) {
	files, err := filepath.Glob("testdata/miscompile-*.k")
	if err != nil || len(files) == 0 {
		t.Fatalf("no minimized cases: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			k, err := irtext.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			header := map[string]string{}
			for _, line := range strings.Split(string(src), "\n") {
				if key, val, ok := strings.Cut(strings.TrimPrefix(line, "// "), ": "); ok {
					header[key] = val
				}
			}
			args, host := map[string]int32{}, ir.NewHost()
			for _, p := range k.Params {
				for _, f := range strings.Fields(header[p.Name]) {
					v, err := strconv.ParseInt(f, 10, 32)
					if err != nil {
						t.Fatalf("%s: %v", p.Name, err)
					}
					if p.Kind == ir.ArrayRef {
						host.Arrays[p.Name] = append(host.Arrays[p.Name], int32(v))
					} else {
						args[p.Name] = int32(v)
					}
				}
			}
			comp, err := arch.ByName(header["comp"])
			if err != nil {
				t.Fatal(err)
			}
			c, err := pipeline.Compile(k, comp, armOptions(header["arm"]))
			if err != nil {
				t.Fatalf("refused: %v", err)
			}
			if err := checkEveryWalk(k, c, args, host); err != nil {
				t.Error(err)
			}
		})
	}
}
