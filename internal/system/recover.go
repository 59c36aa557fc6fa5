// The recovery ladder of a rejected CGRA run, degradation onto the
// surviving array, and the masked hardware. Degradation is the one
// stop-the-world step: it re-synthesizes under System.mu.
package system

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cgra/internal/arch"
	"cgra/internal/fault"
	"cgra/internal/ir"
	"cgra/internal/obs"
)

// recoverInvocation is the one fault step of a rejected CGRA run, solo or
// lane. A cancelled caller is not a hardware fault and gets the error
// back. Any other rejection, and each failed retry after it, is counted
// and charged to the breaker; the recovery policy masks newly diagnosed
// permanent faults and re-synthesizes onto the degraded composition,
// re-executes up to the retry cap — each attempt paced by exponential
// backoff with jitter — and finally falls back to host execution.
func (s *System) recoverInvocation(ctx context.Context, name string, fault error, args map[string]int32, host *ir.Host) (*Result, error) {
	if ctx.Err() != nil {
		return nil, fault
	}
	ctx, sp := obs.StartSpanCtx(ctx, "recover")
	defer sp.Finish()
	k := s.state.Load().kernels[name]
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		s.ctr.faultsDetected.Add(1)
		sp.Event("fault_detected", fault.Error())
		k.br.failure(time.Now(), breakerThreshold)
		if attempt >= maxRetries || sleepCtx(ctx, jitter(backoff)) != nil {
			break
		}
		if backoff *= 2; backoff > retryBackoffMax {
			backoff = retryBackoffMax
		}
		ent := s.remap(ctx, k, sp)
		if ent == nil || !k.br.allow(time.Now(), breakerCooldown) {
			break
		}
		s.ctr.retries.Add(1)
		sp.Event("retry", fmt.Sprintf("accelerated re-execution attempt %d", attempt+1))
		res, err := s.runAccelerated(ctx, name, ent, args, host)
		if err == nil {
			k.br.success()
			res.Recovered = true
			return res, nil
		}
		if ctx.Err() != nil {
			break
		}
		fault = err
	}
	s.ctr.fallbacks.Add(1)
	sp.Event("host_fallback", "recovery exhausted: serving on host")
	res, err := s.runHost(ctx, name, args, host, false)
	if err != nil {
		return nil, err
	}
	res.Recovered = true
	return res, nil
}

// remap masks newly manifested permanent faults and re-synthesizes the
// kernel onto the degraded composition, synchronously: every compiled
// kernel targeted the old array and the invocation being recovered needs
// the new entry. It returns the entry to retry on (nil: none, serve on the
// host). It holds the kernel's compile lock and System.mu throughout; its
// compileKernel call is the only compile under the system lock.
func (s *System) remap(ctx context.Context, k *kernel, sp *obs.Span) *entry {
	k.compile.Lock()
	defer k.compile.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if perm := s.newPermanentFaultsLocked(); len(perm) > 0 {
		sp.Event("degrade", fmt.Sprintf("masking %d permanent fault(s)", len(perm)))
		if !s.degradeLocked(perm) {
			// The surviving array is unusable: permanent host fallback.
			ns := s.state.Load().clone()
			delete(ns.compiled, k.ir.Name)
			s.state.Store(ns)
			k.hostOnly.Store(true)
			return nil
		}
		ctx, cancel := context.WithTimeout(ctx, s.compileDeadline)
		defer cancel()
		st := s.state.Load()
		ent, err := s.compileKernel(ctx, st, k.ir.Name)
		if err != nil {
			// The degraded array cannot map the kernel: permanent host
			// fallback — unless the compile merely hit its deadline, in
			// which case a later profiled run may retry synthesis.
			if !ErrIsDeadline(err) {
				k.hostOnly.Store(true)
			}
			return nil
		}
		s.installLocked(k, st.gen, ent)
		s.ctr.resyntheses.Add(1)
	}
	return s.state.Load().compiled[k.ir.Name]
}

// jitter spreads a backoff delay over [d/2, d) so concurrent recoveries
// desynchronize instead of hammering the array in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)))
}

// sleepCtx sleeps for d or until the context is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// newPermanentFaultsLocked lists manifested permanent faults not yet
// masked.
func (s *System) newPermanentFaultsLocked() []fault.Fault {
	var out []fault.Fault
	for _, f := range s.plan.Load().injector().ManifestedPermanent() {
		switch f.Kind {
		case fault.PermanentPE:
			if !s.deadPEs[f.PE] {
				out = append(out, f)
			}
		case fault.BrokenLink:
			if !s.deadLinks[[2]int{f.Src, f.Dst}] {
				out = append(out, f)
			}
		}
	}
	return out
}

// degradeLocked masks the given faults out of the array and recomputes the
// synthesis target (all-pairs routing is rebuilt by the scheduler on the
// new composition). Every compiled kernel targeted the old array, so the
// dispatch entries are dropped and the generation bumped: in-flight
// compiles against the old target land stale and are discarded.
// Returns false when the surviving array is unusable.
func (s *System) degradeLocked(faults []fault.Fault) bool {
	for _, f := range faults {
		switch f.Kind {
		case fault.PermanentPE:
			s.deadPEs[f.PE] = true
		case fault.BrokenLink:
			s.deadLinks[[2]int{f.Src, f.Dst}] = true
		}
	}
	d, err := arch.Degrade(s.Comp, s.deadPEs, s.deadLinks)
	if err != nil {
		return false
	}
	ns := *s.state.Load()
	ns.gen++
	ns.compiled = map[string]*entry{}
	ns.target, ns.targetDigest, ns.phys = d.Comp, d.Comp.Digest(), d.PhysOf
	s.state.Store(&ns)
	return true
}

// DegradedComposition returns the composition synthesis currently targets
// when hardware has been masked, or nil while the full array is in use.
func (s *System) DegradedComposition() *arch.Composition {
	st := s.state.Load()
	if st.target == s.Comp {
		return nil
	}
	return st.target
}

// MaskedPEs returns the physical indices of PEs masked by degradation.
func (s *System) MaskedPEs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for pe := range s.deadPEs {
		out = append(out, pe)
	}
	sort.Ints(out)
	return out
}
