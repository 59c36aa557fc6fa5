package sched

import (
	"strings"
	"testing"
)

func TestBackends(t *testing.T) {
	got := Backends()
	want := []string{BackendList, BackendModulo}
	if len(got) != len(want) {
		t.Fatalf("Backends() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Backends() = %v, want %v", got, want)
		}
	}
}

func TestBackendByName(t *testing.T) {
	for _, name := range []string{"", BackendList} {
		b, err := BackendByName(name)
		if err != nil || b != BackendList {
			t.Errorf("BackendByName(%q) = %v, %v; want list backend", name, b, err)
		}
	}
	b, err := BackendByName(BackendModulo)
	if err != nil || b != BackendModulo {
		t.Errorf("BackendByName(modulo) = %v, %v", b, err)
	}
	if _, err := BackendByName("simulated-annealing"); err == nil {
		t.Fatal("unknown backend accepted")
	} else if !strings.Contains(err.Error(), "valid: list, modulo") {
		t.Errorf("error %q does not spell out the valid backends", err)
	}
}

// TestRunRejectsUnknownBackend asserts the validation fires before any
// scheduling work, so cgrac/cgrasim flag parsing can surface it fast.
func TestRunRejectsUnknownBackend(t *testing.T) {
	g := compile(t, `kernel k(in x, inout r) { r = x + 1; }`)
	if _, err := Run(g, mesh4(t), Options{Backend: "bogus"}); err == nil {
		t.Fatal("Run accepted an unknown backend")
	} else if !strings.Contains(err.Error(), `unknown backend "bogus"`) {
		t.Errorf("unexpected error: %v", err)
	}
}
