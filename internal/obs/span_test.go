package obs

import (
	"strings"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	root := StartSpan("compile")
	a := root.StartChild("unroll")
	a.Set("stmts", 41)
	time.Sleep(time.Millisecond)
	a.Finish()
	b := root.StartChild("sched")
	r := b.StartChild("route")
	r.Finish()
	b.Set("nodes", 172)
	b.Finish()
	root.Finish()

	if d := a.Duration(); d <= 0 {
		t.Errorf("child duration = %v, want > 0", d)
	}
	if root.Duration() < a.Duration() {
		t.Error("root shorter than child")
	}

	var paths []string
	root.Walk(func(path string, sp *Span) { paths = append(paths, path) })
	want := []string{"compile", "compile/unroll", "compile/sched", "compile/sched/route"}
	if len(paths) != len(want) {
		t.Fatalf("paths = %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Errorf("path[%d] = %q, want %q", i, paths[i], want[i])
		}
	}

	for _, c := range []struct {
		sp   *Span
		name string
		v    int64
	}{{a, "stmts", 41}, {b, "nodes", 172}} {
		if ms := c.sp.Metrics(); len(ms) != 1 || ms[0].Name != c.name || ms[0].Value != c.v {
			t.Errorf("%s metrics = %v, want %s=%d", c.sp.Name, ms, c.name, c.v)
		}
	}
}

func TestSpanSetOverwrites(t *testing.T) {
	s := StartSpan("x")
	s.Set("n", 1)
	s.Set("n", 2)
	ms := s.Metrics()
	if len(ms) != 1 || ms[0].Value != 2 {
		t.Errorf("metrics = %v, want single n=2", ms)
	}
}

func TestSpanExport(t *testing.T) {
	root := StartSpan("compile")
	c := root.StartChild("cdfg")
	c.Set("nodes", 7)
	c.Finish()
	root.Finish()

	reg := NewRegistry()
	root.Export(reg, "cgra_compile")

	if v := reg.Gauge("cgra_compile_phase_seconds", L("phase", "total")).Value(); v <= 0 {
		t.Errorf("total phase seconds = %v, want > 0", v)
	}
	if v := reg.Gauge("cgra_compile_phase_seconds", L("phase", "cdfg")).Value(); v < 0 {
		t.Errorf("cdfg phase seconds = %v", v)
	}
	if v := reg.Gauge("cgra_compile_phase_metric", L("phase", "cdfg"), L("metric", "nodes")).Value(); v != 7 {
		t.Errorf("cdfg nodes metric = %v, want 7", v)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `cgra_compile_phase_seconds{phase="cdfg"}`) {
		t.Errorf("prometheus export missing phase series:\n%s", b.String())
	}
}
