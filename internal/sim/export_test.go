package sim

import (
	"context"
	"slices"

	"cgra/internal/arch"
	"cgra/internal/ctxgen"
	"cgra/internal/ir"
)

// RefRun runs the program on the reference interpreter (ref_test.go) with
// the machine's MaxCycles, Probe, Inject and PhysPE, for the
// external differential tests.
func (m *Machine) RefRun(args map[string]int32, host *ir.Host) (*Result, error) {
	return m.refRun(context.Background(), args, host)
}

// Slot shapes, for the slab layout tests.
const (
	ShapeALU     = shapeALU
	ShapeCompare = shapeCompare
	ShapePredALU = shapePredALU
	ShapeLoad    = shapeLoad
	ShapeOther   = shapeOther
)

// SlotLayout is one decoded slot as the slab layout tests see it.
type SlotLayout struct {
	PE, Ctx          int
	Op               arch.OpCode
	AMode, BMode     ctxgen.SrcMode
	AOff, BOff, WOff int32
	Shape            int
}

// Layout returns d's slots in issue order, its register count and the
// values of its constant words.
func Layout(d *Decoded) (slots []SlotLayout, rfTotal int, consts []int32) {
	for c := range d.cmeta {
		for i := d.cmeta[c].lo; i < d.cmeta[c].hi; i++ {
			sl := &d.slots[i]
			slots = append(slots, SlotLayout{
				PE: int(sl.pe), Ctx: c, Op: sl.op,
				AMode: ctxgen.SrcMode(sl.aMode), BMode: ctxgen.SrcMode(sl.bMode),
				AOff: sl.aOff, BOff: sl.bOff, WOff: sl.wOff,
				Shape: int(sl.shape),
			})
		}
	}
	return slots, d.rfTotal, d.consts
}

// LeftSlab returns a copy of the scalar slab the last run returned to d's
// ready slot, as that run left it, or nil when the slot is empty.
func LeftSlab(d *Decoded) []int32 {
	if rs := d.ready.Load(); rs != nil {
		return slices.Clone(rs.rf)
	}
	return nil
}

// ScribbleSlab overwrites every word of the ready slot's scalar slab and
// reports whether the slot held a state.
func ScribbleSlab(d *Decoded) bool {
	rs := d.ready.Load()
	if rs == nil {
		return false
	}
	for i := range rs.rf {
		rs.rf[i] = -12345
	}
	return true
}

// DrawnSlab draws an n-lane state the way a run does (n is 1 for a scalar
// run) and returns a copy of its slab and the slab's lane stride,
// scribbling over every word before putting the state back so the next
// draw must reset it.
func DrawnSlab(d *Decoded, n int) ([]int32, int) {
	rs := d.getState(n)
	defer d.putState(rs)
	rf := slices.Clone(rs.rf)
	for i := range rs.rf {
		rs.rf[i] = -12345
	}
	return rf, rs.lanes
}

// LeftLaneSlab returns a copy of the slab of a state the pool holds, as
// the run that put it there left it, and its lane stride; nil when the
// pool holds none. A batch puts its state there when the ready slot is
// full, as it is after a scalar run.
func LeftLaneSlab(d *Decoded) ([]int32, int) {
	rs, _ := d.pool.Get().(*runState)
	if rs == nil {
		return nil, 0
	}
	defer d.pool.Put(rs)
	return slices.Clone(rs.rf), rs.lanes
}

// Used returns the registers d lists as used: all a drawn state clears.
func Used(d *Decoded) []int32 { return d.used }

// Homes returns the slab offsets of d's live-ins and live-outs.
func Homes(d *Decoded) []int32 {
	var offs []int32
	for _, h := range append(slices.Clone(d.liveIns), d.liveOuts...) {
		offs = append(offs, h.off)
	}
	return offs
}
