package sim

import (
	"context"

	"cgra/internal/ir"
)

// RefRun runs the program on the reference interpreter (ref_test.go) with
// the machine's MaxCycles, Probe, Trace, Inject and PhysPE, for the
// external differential tests.
func (m *Machine) RefRun(args map[string]int32, host *ir.Host) (*Result, error) {
	return m.refRun(context.Background(), args, host)
}
