package system

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"cgra/internal/ir"
	"cgra/internal/irtext"
)

// returnsWithin runs f and fails the test unless it returns within a bound
// far below the held compile's deadline: what it calls must not wait
// behind that compile.
func returnsWithin(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s waited behind another kernel's compile", what)
	}
}

// holdCompile makes name's fresh compiles block in CompileHook until the
// returned release is called; entered is closed once the first one holds.
func holdCompile(s *System, name string) (entered <-chan struct{}, release func()) {
	in, out := make(chan struct{}), make(chan struct{})
	var once atomic.Bool
	s.CompileHook = func(ctx context.Context, kernel string) error {
		if kernel != name {
			return nil
		}
		if once.CompareAndSwap(false, true) {
			close(in)
		}
		select {
		case <-out:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	var released atomic.Bool
	return in, func() {
		if released.CompareAndSwap(false, true) {
			close(out)
		}
	}
}

func waitEntered(t *testing.T, entered <-chan struct{}) {
	t.Helper()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the held compile never started")
	}
}

// TestRegisterSameSourceIsNoop: the record keeps the source digest, so
// registering the same source again succeeds and changes nothing, while
// different source under the name is a conflict.
func TestRegisterSameSourceIsNoop(t *testing.T) {
	s := newSystem(t, 1)
	defer s.Close()
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatal(err)
	}
	if err := s.Synthesize("dot"); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(mustParse(t, dotSrc)); err != nil {
		t.Fatalf("re-registering the same source: %v", err)
	}
	if !s.Synthesized("dot") {
		t.Fatal("re-registration dropped the installed entry")
	}
	err := s.Register(mustParse(t, `kernel dot(inout s) { s = 1; }`))
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("different source under a taken name: got %v, want ErrConflict", err)
	}
	// A call's target and arguments are source too.
	caller := func(body string) *ir.Kernel {
		prog, err := irtext.ParseProgram(`kernel caller(inout s) { ` + body + ` }
			kernel f(inout x, in y) { x = x + y; }
			kernel g(inout x, in y) { x = x - y; }`)
		if err != nil {
			t.Fatal(err)
		}
		return prog.EntryKernel()
	}
	if err := s.Register(caller(`f(s, 1);`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(caller(`f(s, 1);`)); err != nil {
		t.Fatalf("re-registering the same call: %v", err)
	}
	for _, body := range []string{`g(s, 1);`, `f(s, 2);`} {
		if err := s.Register(caller(body)); !errors.Is(err, ErrConflict) {
			t.Fatalf("caller { %s } under a taken name: got %v, want ErrConflict", body, err)
		}
	}
}

// TestQueuedJobLandsWithoutRecompile: a pool job queued for a kernel that
// SynthesizeCtx installs before the job runs lands without compiling it a
// second time, and the kernel is listed as installed once.
func TestQueuedJobLandsWithoutRecompile(t *testing.T) {
	s := newSystem(t, 1)
	defer s.Close()
	s.synthWorkers = 1
	for _, src := range []string{`kernel a(inout r) { r = r + 1; }`, `kernel b(inout r) { r = r * 3; }`} {
		if err := s.Register(mustParse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	entered, release := holdCompile(s, "a")
	defer release()
	hold := s.CompileHook
	var compilesB atomic.Int64
	s.CompileHook = func(ctx context.Context, kernel string) error {
		if kernel == "b" {
			compilesB.Add(1)
		}
		return hold(ctx, kernel)
	}
	// a's job occupies the one worker; b's job queues behind it.
	for _, name := range []string{"a", "b"} {
		res, err := s.Invoke(name, map[string]int32{"r": 1}, ir.NewHost())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Synthesized {
			t.Fatalf("%s: synthesis not enqueued", name)
		}
		if name == "a" {
			waitEntered(t, entered)
		}
	}
	returnsWithin(t, "SynthesizeCtx of b", func() {
		if err := s.Synthesize("b"); err != nil {
			t.Error(err)
		}
	})
	release()
	returnsWithin(t, "Quiesce", s.Quiesce)
	if n := compilesB.Load(); n != 1 {
		t.Errorf("b compiled %d times, want once", n)
	}
	seq := s.Stats().SynthesizedSeq
	slices.Sort(seq)
	if !slices.Equal(seq, []string{"a", "b"}) {
		t.Errorf("synthesized list = %v, want a and b once each", seq)
	}
}

// TestNothingWaitsBehindACompile: while kernel a's compile is held, an
// uncompiled kernel still runs on the host, a new kernel registers, an
// installed kernel's synthesis reports "installed", and the readers
// answer — none of them waits for a's compile to end.
func TestNothingWaitsBehindACompile(t *testing.T) {
	s := newSystem(t, 1_000_000_000)
	defer s.Close()
	for _, src := range []string{dotSrc, `kernel a(inout r) { r = r + 1; }`, `kernel b(inout r) { r = r * 3; }`} {
		if err := s.Register(mustParse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Synthesize("dot"); err != nil {
		t.Fatal(err)
	}
	entered, release := holdCompile(s, "a")
	defer release()
	go func() { _ = s.Synthesize("a") }()
	waitEntered(t, entered)

	returnsWithin(t, "InvokeCtx of an uncompiled kernel", func() {
		res, err := s.InvokeCtx(context.Background(), "b", map[string]int32{"r": 2}, ir.NewHost())
		if err != nil || res.OnCGRA || res.LiveOuts["r"] != 6 {
			t.Errorf("host run of b: res=%+v err=%v", res, err)
		}
	})
	returnsWithin(t, "Register", func() {
		if err := s.Register(mustParse(t, `kernel c(inout r) { r = r - 1; }`)); err != nil {
			t.Error(err)
		}
	})
	returnsWithin(t, "SynthesizeCtx of an installed kernel", func() {
		info, err := s.SynthesizeCtx(context.Background(), "dot")
		if err != nil || info.CacheSource != "installed" {
			t.Errorf("SynthesizeCtx(dot) = %+v, %v; want source installed", info, err)
		}
	})
	returnsWithin(t, "Stats", func() { _ = s.Stats() })
	returnsWithin(t, "Profile", func() {
		if p := s.Profile(); len(p) != 1 || p[0].Name != "b" {
			t.Errorf("profile = %+v, want b alone", p)
		}
	})
	returnsWithin(t, "OpenBreakers", func() { _ = s.OpenBreakers() })
}
