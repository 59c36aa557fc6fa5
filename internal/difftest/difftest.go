// Package difftest is the differential net: kernels compiled under every
// arm onto every composition, each held to the reference interpreter by one
// check chain. Its tier-1 rows of generated kernels run as kgen's TestFuzz*
// tests and sched's TestMiscompileSweep, the cells that once miscompiled
// as sched's TestMiscompileCells and as the seed corpus of pipeline's
// FuzzDifferential, which maps its inputs onto the same tables; the library
// kernels run as pipeline's TestEngineDifferential and
// TestModuloBackendDifferential, and the minimized miscompiles as sched's
// TestMiscompileMinimized.
package difftest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/arch"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/kgen"
	"cgra/internal/pipeline"
	"cgra/internal/sched"
	"cgra/internal/sim"
	"cgra/internal/workload"
)

// Lane is one set of inputs of a kernel.
type Lane struct {
	Args map[string]int32
	Host *ir.Host
}

// Chain runs c on each lane's inputs on the plain walk and on the hooked
// walk with a no-op probe, and on all lanes as one RunBatch. Every run must
// leave the live-outs and heap the interpreter leaves for its inputs, and
// the hooked walk and the batch lane must match the plain walk in run and
// transfer cycles and energy.
func Chain(interp *ir.Interp, k *ir.Kernel, c *pipeline.Compiled, lanes ...Lane) error {
	eng, err := c.Engine()
	if err != nil {
		return err
	}
	checks := make([]func(string, *sim.Result, error, *ir.Host) error, len(lanes))
	reqs := make([]sim.BatchRequest, len(lanes))
	for i, ln := range lanes {
		refHost := ln.Host.Clone()
		ref, err := interp.Run(k, ln.Args, refHost)
		if err != nil {
			return fmt.Errorf("lane %d: interpreter: %v", i, err)
		}
		var plain *sim.Result
		same := func(walk string, res *sim.Result, err error, h *ir.Host) error {
			if err == nil {
				err = ir.Compare(ref, refHost, res.LiveOuts, h)
			}
			if err == nil && plain != nil && (res.RunCycles != plain.RunCycles ||
				res.TransferCycles != plain.TransferCycles || res.Energy != plain.Energy) {
				err = fmt.Errorf("%d run, %d transfer cycles and energy %v; the plain walk %d, %d and %v",
					res.RunCycles, res.TransferCycles, res.Energy, plain.RunCycles, plain.TransferCycles, plain.Energy)
			}
			if err != nil {
				return fmt.Errorf("lane %d, %s: %v", i, walk, err)
			}
			return nil
		}
		h := ln.Host.Clone()
		res, err := c.Run(ln.Args, h)
		if err := same("plain walk", res, err, h); err != nil {
			return err
		}
		plain = res
		m := c.Machine()
		m.Probe = func(sim.Event) {}
		h = ln.Host.Clone()
		res, err = m.Run(ln.Args, h)
		if err := same("hooked walk", res, err, h); err != nil {
			return err
		}
		checks[i], reqs[i] = same, sim.BatchRequest{Args: ln.Args, Host: ln.Host.Clone()}
	}
	for i, o := range eng.RunBatch(context.Background(), 0, reqs) {
		if err := checks[i]("batch", o.Res, o.Err, reqs[i].Host); err != nil {
			return err
		}
	}
	return nil
}

// Arms are the ways the net compiles a kernel: zero options, Defaults()
// (unroll 2), Defaults() at unroll 1, the modulo scheduler, every if as a
// branch, and a generated program with calls through CompileProgram.
var Arms = []string{"zero", "list2", "list1", "modulo", "branch", "program"}

// ArmOptions returns the compile options of arm. A generated kernel's
// counter increments move into the post clause under "modulo"
// (kgen.IncrementInPost), so its loops reach the pipeliner.
func ArmOptions(arm string) pipeline.Options {
	o := pipeline.Defaults()
	switch arm {
	case "zero", "program":
		o = pipeline.Options{}
	case "list1":
		o.UnrollFactor = 1
	case "modulo":
		o.Backend = sched.BackendModulo
	case "branch":
		o = pipeline.Options{}
		o.Build.BranchAllIfs = true
	}
	return o
}

// Configs are the two shapes of generated kernel: kgen's defaults and the
// deep, long-block stress shape.
var Configs = []kgen.Config{{}, {MaxDepth: 3, MaxStmts: 6}}

// Comps are the net's compositions: the seven of the paper's tables the
// list and modulo arms were swept on, 8 PEs F with a one-cycle multiplier,
// and 9 PEs with PE 4 masked.
var Comps = []string{"4 PEs", "9 PEs", "16 PEs", "8 PEs A", "8 PEs B", "8 PEs D", "8 PEs F", "8 PEs F mul 1", "9 PEs less PE 4"}

// Comp builds the composition of Comps named name.
func Comp(t testing.TB, name string) *arch.Composition {
	t.Helper()
	var comp *arch.Composition
	var err error
	switch name {
	case "8 PEs F mul 1":
		comp, err = arch.IrregularComposition("F", 1)
	case "9 PEs less PE 4":
		var d *arch.Degraded
		if comp, err = arch.ByName("9 PEs"); err == nil {
			if d, err = arch.Degrade(comp, map[int]bool{4: true}, nil); err == nil {
				comp = d.Comp
			}
		}
	default:
		comp, err = arch.ByName(name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// compileCell compiles kgen kernel id of cfg under arm onto comp. It
// returns the compile's refusal, or else the chain's verdict on the result.
func compileCell(id int64, cfg kgen.Config, arm string, comp *arch.Composition) (refused, wrong error) {
	var (
		g      *kgen.Generated
		c      *pipeline.Compiled
		interp = &ir.Interp{}
		err    error
	)
	if arm == "program" {
		var prog *ir.Program
		prog, g = kgen.NewProgram(id, cfg)
		interp.Library = prog.Kernels
		c, err = pipeline.CompileProgram(prog, comp, ArmOptions(arm))
	} else {
		g = kgen.New(id, cfg)
		if arm == "modulo" {
			g.Kernel.Body = kgen.IncrementInPost(g.Kernel.Body)
		}
		c, err = pipeline.Compile(g.Kernel, comp, ArmOptions(arm))
	}
	if err != nil {
		return err, nil
	}
	in := Lane{g.Args, g.NewHost()}
	return nil, Chain(interp, g.Kernel, c, in, in)
}

// refusable reports whether a compile refusal of a kernel of Configs[cfg]
// is a limit of the array, not a miscompile: a deep kernel may exceed any of
// the context memory, the register files and the C-Box slots, one of kgen's
// default shape only the context memory.
func refusable(cfg int, err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "memory holds") ||
		cfg == 1 && (strings.Contains(msg, "RF entries") || strings.Contains(msg, "C-Box slots"))
}

// CheckCell compiles kgen kernel id of Configs[cfg] under arm onto comp,
// named name, and fails t on a wrong answer or on a refusal, unless strict
// is unset and it is refusable.
func CheckCell(t *testing.T, id int64, cfg int, arm, name string, comp *arch.Composition, strict bool) {
	t.Helper()
	refusal, wrong := compileCell(id, Configs[cfg], arm, comp)
	switch {
	case refusal != nil && (strict || !refusable(cfg, refusal)):
		t.Errorf("kgen %d, config %d, %s on %s: refused: %v", id, cfg, arm, name, refusal)
	case wrong != nil:
		t.Errorf("kgen %d, config %d, %s on %s: %v", id, cfg, arm, name, wrong)
	}
}

// trio are the compositions the deep kernels run on.
var trio = []string{"4 PEs", "8 PEs B", "8 PEs F mul 1"}

// A Row is a block of the net's tier-1 cells: kgen ids [From, To) of
// Configs[Cfg] under each of Arms on every composition, or on the trio of
// 4 PEs, 8 PEs B and 8 PEs F (mul 1) only. A compile may end in a
// refusable refusal unless the row is Strict. The row leaves the cells it
// shares with a row in Skip, which runs on every composition, to that row.
type Row struct {
	Cfg          int
	Arms         []string
	From, To     int64
	Strict, Trio bool
	Skip         []Row
}

// The rows of the net, each the tier-1 body of one test.
var (
	// Flow: kgen ids 0-59 under zero options (kgen's TestFuzzFlowAgainstInterpreter).
	Flow = Row{Cfg: 0, Arms: []string{"zero"}, From: 0, To: 60, Strict: true}
	// Optimized: ids 100-139 under Defaults() (kgen's TestFuzzFlowOptimized).
	Optimized = Row{Cfg: 0, Arms: []string{"list2"}, From: 100, To: 140, Strict: true}
	// Calls: programs 500-529 through CompileProgram (kgen's TestFuzzProgramsWithCalls).
	Calls = Row{Cfg: 0, Arms: []string{"program"}, From: 500, To: 530, Strict: true}
	// Branch: ids 700-729 with every if branched (kgen's TestFuzzBranchAllIfs).
	Branch = Row{Cfg: 0, Arms: []string{"branch"}, From: 700, To: 730, Strict: true}
	// Sweep: ids 0-511 under five arms (sched's TestMiscompileSweep).
	Sweep = Row{Cfg: 0, Arms: []string{"zero", "list2", "list1", "modulo", "branch"}, From: 0, To: 512,
		Skip: []Row{Flow, Optimized}}
	// Stress: deep ids 1000-1399 under zero options and Defaults() on the
	// trio (kgen's TestFuzzStress).
	Stress = Row{Cfg: 1, Arms: []string{"zero", "list2"}, From: 1000, To: 1400, Trio: true}
)

// holds reports whether r holds kgen kernel id of Configs[cfg] under arm.
func (r Row) holds(id int64, cfg int, arm string) bool {
	return cfg == r.Cfg && id >= r.From && id < r.To && slices.Contains(r.Arms, arm)
}

// Run checks every cell of r, one parallel subtest per composition. Under
// the race detector it runs the row's first 64 ids, with -short its first 8.
func (r Row) Run(t *testing.T) {
	limit := int64(1 << 62)
	if raceEnabled {
		limit = 64
	}
	if testing.Short() {
		limit = 8
	}
	names := Comps
	if r.Trio {
		names = trio
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			comp := Comp(t, name)
			for _, arm := range r.Arms {
				for id := r.From; id < min(r.To, r.From+limit); id++ {
					if !slices.ContainsFunc(r.Skip, func(s Row) bool { return s.holds(id, r.Cfg, arm) }) {
						CheckCell(t, id, r.Cfg, arm, name, comp, r.Strict)
					}
				}
			}
		})
	}
}

// Miscompiled are the generated kernels of kgen's default shape, each on
// the composition where it gave a wrong answer or was refused by Verify
// before the three fixes of the copy placement and the back-jump lifetime,
// under the list and modulo arms (MiscompiledArms).
var Miscompiled = []struct {
	ID   int64
	Comp string
}{
	{2616, "16 PEs"}, {2616, "8 PEs B"}, {2616, "8 PEs D"}, {2616, "8 PEs F"}, // copy before write
	{2814, "8 PEs A"}, {987654323677, "8 PEs D"}, {987654323677, "8 PEs F"}, // copy before write
	{987654323193, "9 PEs"},                                // copy before write
	{790, "8 PEs A"}, {3913, "8 PEs A"}, {3913, "8 PEs B"}, // back-jump cycle
	{3621, "4 PEs"}, {1417, "16 PEs"}, {2502, "8 PEs B"}, // copy past the block
}

// MiscompiledArms are the arms each of Miscompiled is held under.
var MiscompiledArms = []string{"list2", "list1", "modulo"}

// CheckLibrary holds every workload kernel at its default size, and adpcm
// decoding 24 samples, compiled under arm on "9 PEs" to the chain, one
// subtest per kernel. With pipelinedOnly it keeps just the kernels whose
// loops the compile software-pipelined, each named "<kernel>-<arm>".
func CheckLibrary(t *testing.T, arm string, pipelinedOnly bool) {
	comp := Comp(t, "9 PEs")
	check := func(name string, k *ir.Kernel, in Lane) {
		c, err := pipeline.Compile(k, comp, ArmOptions(arm))
		if err == nil && pipelinedOnly {
			if c.Schedule.Stats.PipelinedLoops == 0 {
				return
			}
			name += "-" + arm
		}
		t.Run(name, func(t *testing.T) {
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if err := Chain(&ir.Interp{}, k, c, in, in); err != nil {
				t.Error(err)
			}
		})
	}
	for _, w := range workload.All() {
		check(w.Name, w.Kernel, Lane{w.Args(w.DefaultSize), w.Host(w.DefaultSize)})
	}
	const n = 24
	var st adpcm.State
	codes, err := adpcm.Encode(adpcm.GenerateSamples(n), &st)
	if err != nil {
		t.Fatal(err)
	}
	check("adpcm", adpcm.Kernel(), Lane{adpcm.Args(n, adpcm.State{}), adpcm.NewHost(codes, n)})
}

// CheckMinimized compiles each minimized kernel the glob pattern matches,
// one per mechanism, and holds it to the chain, one subtest per file. A
// case's header comments name its composition ("// comp: 9 PEs"), its arm
// ("// arm: list2"), and the value of each parameter: a scalar's ("// p:
// 977") and an array's contents ("// m0: 143 -148 35").
func CheckMinimized(t *testing.T, pattern string) {
	files, err := filepath.Glob(pattern)
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
			c, err := pipeline.Compile(k, Comp(t, header["comp"]), ArmOptions(header["arm"]))
			if err != nil {
				t.Fatalf("refused: %v", err)
			}
			in := Lane{args, host}
			if err := Chain(&ir.Interp{}, k, c, in, in); err != nil {
				t.Error(err)
			}
		})
	}
}
