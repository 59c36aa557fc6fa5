package pipeline

import (
	"context"
	"testing"

	"cgra/internal/arch"
	"cgra/internal/sched"
	"cgra/internal/workload"
)

// moduloOptions compiles with the modulo backend (resolveBackend forces
// unrolling off so counter steps stay +1).
func moduloOptions() Options {
	o := Defaults()
	o.Backend = sched.BackendModulo
	return o
}

// TestModuloBackendDifferential compiles every workload with the modulo
// backend and checks byte-identical live-outs and heap against the
// reference interpreter — whether the kernel's loops pipelined or fell
// back to the list layout.
func TestModuloBackendDifferential(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workload.All() {
		t.Run(w.Name, func(t *testing.T) {
			c, err := Compile(w.Kernel, comp, moduloOptions())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if _, err := CheckAgainstInterpreter(w.Kernel, c, w.Args(w.DefaultSize), w.Host(w.DefaultSize)); err != nil {
				t.Fatalf("differential (pipelined=%d): %v", c.Schedule.Stats.PipelinedLoops, err)
			}
			t.Logf("pipelined loops: %d, stats: %+v", c.Schedule.Stats.PipelinedLoops, c.Schedule.Pipelined)
		})
	}
}

// pipeliningWins are the kernels whose inner loop must software-pipeline on
// "9 PEs" and pay for it end to end.
var pipeliningWins = []string{"dot", "fir"}

// TestModuloBackendPipelines asserts dot and fir actually pipeline and beat
// the list backend end to end.
func TestModuloBackendPipelines(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range pipeliningWins {
		t.Run(name, func(t *testing.T) {
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cm, err := Compile(w.Kernel, comp, moduloOptions())
			if err != nil {
				t.Fatalf("modulo compile: %v", err)
			}
			if cm.Schedule.Stats.PipelinedLoops != 1 {
				t.Fatalf("pipelined loops = %d, want 1", cm.Schedule.Stats.PipelinedLoops)
			}
			pl := cm.Schedule.Pipelined[0]
			t.Logf("%s: %+v", name, pl)
			if pl.II < pl.MII {
				t.Errorf("II %d below MII %d", pl.II, pl.MII)
			}

			cl, err := Compile(w.Kernel, comp, Defaults())
			if err != nil {
				t.Fatalf("list compile: %v", err)
			}
			// The list layout's tightest loop, header through back-jump, is
			// what one iteration costs without overlap; II must undercut it.
			listIter := 0
			for _, lr := range cl.Schedule.LoopRanges {
				if n := lr[1] - lr[0] + 1; listIter == 0 || n < listIter {
					listIter = n
				}
			}
			if pl.II >= listIter {
				t.Errorf("II %d not below the list layout's %d contexts per iteration", pl.II, listIter)
			}
			rm, err := CheckAgainstInterpreter(w.Kernel, cm, w.Args(w.DefaultSize), w.Host(w.DefaultSize))
			if err != nil {
				t.Fatalf("modulo differential: %v", err)
			}
			rl, err := CheckAgainstInterpreter(w.Kernel, cl, w.Args(w.DefaultSize), w.Host(w.DefaultSize))
			if err != nil {
				t.Fatalf("list differential: %v", err)
			}
			t.Logf("cycles: modulo=%d list=%d", rm.Sim.RunCycles, rl.Sim.RunCycles)
			// The acceptance bar: at least a 25% end-to-end reduction.
			if rm.Sim.RunCycles*4 > rl.Sim.RunCycles*3 {
				t.Errorf("modulo %d cycles is less than 25%% below list %d", rm.Sim.RunCycles, rl.Sim.RunCycles)
			}
		})
	}
}

// TestModuloCompilesCopyChains: on these three cells the solver bridges a
// dependence with a chain of routing copies, W→C1→C2→R. Realization used to
// trace a copy back one step only and gave the whole loop up with "no edge
// for producer". They must pipeline, with copies, and answer like the
// interpreter.
func TestModuloCompilesCopyChains(t *testing.T) {
	for _, c := range []struct{ kernel, comp string }{
		{"fir", "16 PEs"}, {"matmul", "16 PEs"}, {"matmul", "8 PEs B"},
	} {
		t.Run(c.kernel+"@"+c.comp, func(t *testing.T) {
			comp, err := arch.ByName(c.comp)
			if err != nil {
				t.Fatal(err)
			}
			w, err := workload.ByName(c.kernel)
			if err != nil {
				t.Fatal(err)
			}
			out, err := Compile(w.Kernel, comp, moduloOptions())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if _, err := CheckAgainstInterpreter(w.Kernel, out, w.Args(w.DefaultSize), w.Host(w.DefaultSize)); err != nil {
				t.Fatalf("differential: %v", err)
			}
			pl := out.Schedule.Pipelined
			if len(pl) != 1 || pl[0].Copies < 2 {
				t.Errorf("pipelined = %+v, want one loop with a routing-copy chain", pl)
			}
		})
	}
}

// TestParseBackend covers flag-level validation, including the pipeline-only
// "auto" value.
func TestParseBackend(t *testing.T) {
	for name, want := range map[string]string{
		"": sched.BackendList, "list": sched.BackendList,
		"modulo": sched.BackendModulo, "auto": BackendAuto,
	} {
		got, err := ParseBackend(name)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	if _, err := ParseBackend("greedy"); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestCompileRejectsAuto: a plain Compile has no inputs to verify with, so
// "auto" must fail fast instead of silently picking one backend.
func TestCompileRejectsAuto(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	o := Defaults()
	o.Backend = BackendAuto
	if _, err := Compile(workload.DotProduct().Kernel, comp, o); err == nil {
		t.Fatal("Compile accepted the auto backend")
	}
}

// TestAutoNeverSlowerThanList: on every workload the auto selection's
// verified cycles match the better arm — in particular auto never installs
// a modulo result slower than the list layout.
func TestAutoNeverSlowerThanList(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workload.All() {
		t.Run(w.Name, func(t *testing.T) {
			args, host := w.Args(w.DefaultSize), w.Host(w.DefaultSize)
			c, rep, err := CompileAutoCtx(context.Background(), w.Kernel, comp, Defaults(), args, host)
			if err != nil {
				t.Fatalf("auto: %v", err)
			}
			cl, err := Compile(w.Kernel, comp, Defaults())
			if err != nil {
				t.Fatalf("list: %v", err)
			}
			rl, err := CheckAgainstInterpreter(w.Kernel, cl, args, host)
			if err != nil {
				t.Fatalf("list differential: %v", err)
			}
			ra, err := CheckAgainstInterpreter(w.Kernel, c, args, host)
			if err != nil {
				t.Fatalf("auto differential: %v", err)
			}
			if ra.Sim.RunCycles > rl.Sim.RunCycles {
				t.Errorf("auto (%s) %d cycles slower than list %d",
					rep.Selected, ra.Sim.RunCycles, rl.Sim.RunCycles)
			}
			if rep.Selected == sched.BackendModulo && rep.ModuloCycles >= rep.ListCycles {
				t.Errorf("auto selected modulo without a cycle win: %+v", rep)
			}
			t.Logf("%s: selected=%s list=%d modulo=%d", w.Name, rep.Selected, rep.ListCycles, rep.ModuloCycles)
		})
	}
}

// TestAutoSelectsModulo: the flagship kernels must actually win on the
// modulo path, and the report must carry the pipelining evidence.
func TestAutoSelectsModulo(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range pipeliningWins {
		t.Run(name, func(t *testing.T) {
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			_, rep, err := CompileAutoCtx(context.Background(), w.Kernel, comp, Defaults(), w.Args(w.DefaultSize), w.Host(w.DefaultSize))
			if err != nil {
				t.Fatalf("auto: %v", err)
			}
			if rep.Selected != sched.BackendModulo {
				t.Fatalf("auto selected %q: %+v", rep.Selected, rep)
			}
			if len(rep.Pipelined) != 1 {
				t.Errorf("report carries no pipelining evidence: %+v", rep)
			}
		})
	}
}
