// The per-kernel record and the profiler. Register creates one record per
// kernel and every dispatch snapshot shares it: the IR, its source digest,
// its circuit breaker, its host profile and its synthesis flags. Its mutable
// parts are atomics or carry their own lock, so the host path, the pool and
// the readers (Profile, OpenBreakers, BreakerState) never take System.mu.
package system

import (
	"cmp"
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cgra/internal/ir"
	"cgra/internal/obs"
)

// kernel is one registered kernel's record.
type kernel struct {
	ir *ir.Kernel
	// digest is ir's source digest: Register accepts the same source again
	// and refuses different source under the name.
	digest string
	br     *breaker
	// weight accumulates the profiled host cycles (the synthesis trigger);
	// hostMax is the largest host run, profiled or not (the watchdog budget
	// derives from it).
	weight, hostMax atomic.Int64
	// hostOnly marks a kernel the (degraded) array can definitively not
	// map; it executes on the host permanently. Transient failures go
	// through the breaker instead.
	hostOnly atomic.Bool
	// pending is set while a synthesis job of the kernel is queued or
	// running: at most one per kernel.
	pending atomic.Bool
	// compile is held across every compile of the kernel (SynthesizeCtx, a
	// pool job, recovery's re-synthesis), so a kernel compiles at most once
	// at a time while different kernels compile in parallel. It is taken
	// before System.mu, never after.
	compile sync.Mutex
}

// newKernel builds the record of a kernel being registered; its breaker
// gauge exists, at closed, from here on.
func (s *System) newKernel(k *ir.Kernel, digest string) *kernel {
	stateG := s.reg.Gauge("cgra_breaker_state", obs.L("kernel", k.Name))
	stateG.SetInt(int64(brClosed))
	return &kernel{ir: k, digest: digest, br: &breaker{notify: func(to breakerState) {
		stateG.SetInt(int64(to))
		s.reg.Counter("cgra_breaker_transitions_total",
			obs.L("kernel", k.Name), obs.L("to", to.String())).Inc()
	}}}
}

// runHost executes on the AMIDAR host; when profile is true the profiler
// accumulates the kernel's weight and may enqueue background synthesis.
func (s *System) runHost(ctx context.Context, name string, args map[string]int32, host *ir.Host, profile bool) (*Result, error) {
	result, err := s.execHost(ctx, name, args, host)
	if err != nil {
		return nil, err
	}
	k := s.state.Load().kernels[name]
	for m := k.hostMax.Load(); result.Cycles > m; m = k.hostMax.Load() {
		if k.hostMax.CompareAndSwap(m, result.Cycles) {
			break
		}
	}
	if !profile {
		return result, nil
	}
	if k.weight.Add(result.Cycles) < s.Threshold || k.hostOnly.Load() || !k.pending.CompareAndSwap(false, true) {
		return result, nil
	}
	// A job clears pending only after it landed, so a free flag means a
	// fresh snapshot shows what the last job installed.
	st := s.state.Load()
	if st.compiled[name] != nil || !k.br.allow(time.Now(), breakerCooldown) {
		k.pending.Store(false)
		return result, nil
	}
	if s.enqueueSynth(k, st.gen) {
		result.Synthesized = true
		obs.EventCtx(ctx, "synth_enqueued", name)
	} else {
		k.pending.Store(false)
		k.br.cancelProbe()
	}
	return result, nil
}

// cycleBudget derives the per-kernel watchdog budget from the AMIDAR
// host-cycle profile: watchdogFactor × the largest observed host run,
// clamped to [50k, WatchdogCycles]. The accelerator is only deployed when
// it beats the host by a wide margin, so a CGRA run burning a multiple of
// the host cost is livelocked and the watchdog converts it into a detected
// fault quickly — instead of burning the global 10M-cycle default.
func (s *System) cycleBudget(k *kernel) int64 {
	cap := s.WatchdogCycles
	est := k.hostMax.Load()
	if est <= 0 {
		return cap
	}
	return min(max(watchdogFactor*est, 50_000), cap)
}

// ProfileEntry is one kernel's accumulated profiled host-cycle weight.
type ProfileEntry struct {
	Name   string
	Cycles int64
}

// Profile lists the host-cycle weights observed so far, heaviest first.
func (s *System) Profile() []ProfileEntry {
	var out []ProfileEntry
	for name, k := range s.state.Load().kernels {
		if w := k.weight.Load(); w > 0 {
			out = append(out, ProfileEntry{name, w})
		}
	}
	slices.SortFunc(out, func(a, b ProfileEntry) int {
		return cmp.Or(cmp.Compare(b.Cycles, a.Cycles), strings.Compare(a.Name, b.Name))
	})
	return out
}

// OpenBreakers lists the kernels whose circuit breaker is currently not
// closed (open or half-open), sorted and never nil — the readiness
// endpoint's view of which kernels are being shed to the host.
func (s *System) OpenBreakers() []string {
	out := []string{}
	for name, k := range s.state.Load().kernels {
		if k.br.current() != brClosed {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// BreakerState reports the named kernel's circuit-breaker state:
// "closed", "open" or "half_open" (an unregistered name reads closed).
func (s *System) BreakerState(name string) string {
	if k := s.state.Load().kernels[name]; k != nil {
		return k.br.current().String()
	}
	return brClosed.String()
}
