package pipeline

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cgra/internal/arch"
	"cgra/internal/irtext"
)

// TestCompileDeadlineInterruptsScheduler: a deadline that passes while the
// scheduler runs stops the compile from inside its step loop, with the
// deadline as the cause and no partial schedule. The compile path only
// polls its context, so a context that expires at its third check (two in
// CompileCtx before scheduling, then the scheduler's first step) makes the
// deadline pass there on every host.
func TestCompileDeadlineInterruptsScheduler(t *testing.T) {
	k, err := irtext.Parse(`kernel k(inout r) { r = r + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompileCtx(expiresAfter(2, context.DeadlineExceeded), k, comp, Defaults())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not carry the deadline cause: %v", err)
	}
	if c != nil {
		t.Fatal("partial Compiled returned alongside the deadline error")
	}
	if !strings.HasPrefix(err.Error(), "sched: scheduling cancelled") {
		t.Errorf("deadline not seen inside the scheduler: %v", err)
	}
}

// TestCompileCancelledUpfront: an already-cancelled context must abort
// before any compilation work happens.
func TestCompileCancelledUpfront(t *testing.T) {
	k, err := irtext.Parse(`kernel k(inout r) { r = r + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := arch.HomogeneousMesh(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompileCtx(ctx, k, comp, Defaults()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
