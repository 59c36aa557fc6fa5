package drill

import (
	"fmt"
	"io"
	"time"

	"cgra/internal/fault"
	"cgra/internal/system"
)

// Soak drives streams concurrent invocation streams of c, iters
// invocations each, through s, where c's kernel is registered: unless it
// was synthesized up front, every stream starts on the AMIDAR host and
// background synthesis moves the kernel to the CGRA mid-soak; with plan's
// faults armed, detection, recovery, degradation and the circuit breaker
// all exercise under load. It prints the system's counters and fails on
// any invocation error or any result that differs from the fault-free
// reference. A plan that injects nothing is reported, not failed.
func Soak(s *system.System, c *Case, plan fault.Plan, streams, iters int, out io.Writer) error {
	if len(plan.Faults) > 0 {
		if err := Arm(s, plan, out); err != nil {
			return err
		}
	}
	send := viaSystem(s)
	start := time.Now()
	r := (&Load{
		Cases: []*Case{c}, Workers: streams, Iters: iters,
		Sender: func(int) Sender { return send },
	}).Run()
	s.Quiesce()
	elapsed := time.Since(start)

	st := s.Stats()
	fmt.Fprintf(out, "soak: %d streams × %d invocations of %s in %v\n",
		streams, iters, c.Name, elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "  runs: %d host, %d CGRA (cycles: %d host, %d CGRA)\n",
		st.AMIDARRuns, st.CGRARuns, st.AMIDARCycles, st.CGRACycles)
	fmt.Fprintf(out, "  synthesis: %d landed, %d shed, %d deadline hits; recovery retries %d\n",
		len(st.SynthesizedSeq), st.SynthSheds, st.DeadlineHits, st.Retries)
	fmt.Fprintf(out, "  faults: injected %d, detected %d, re-syntheses %d, host fallbacks %d\n",
		st.FaultsInjected, st.FaultsDetected, st.Resyntheses, st.Fallbacks)
	if len(plan.Faults) > 0 && st.FaultsInjected == 0 {
		fmt.Fprintln(out, "  latent fault plan: the schedule never exercised the faulty hardware")
	}
	fmt.Fprintf(out, "  breaker[%s]: %s\n", c.Name, s.BreakerState(c.Name))
	if masked := s.MaskedPEs(); len(masked) > 0 {
		fmt.Fprintf(out, "  degraded composition active, PEs masked: %v\n", masked)
	}
	if r.Errors > 0 || r.Mismatches > 0 {
		return fmt.Errorf("soak failed: %d invocation errors, %d result mismatches; first: %v",
			r.Errors, r.Mismatches, r.First())
	}
	fmt.Fprintln(out, "  every result matched the fault-free reference")
	return nil
}
