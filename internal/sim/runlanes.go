// Batched execution lanes: one predecoded microprogram walk amortized
// across N independent requests for the same artifact. The batch runs on
// one run state of N lanes (runState, stride N), in which each lane has
// its own registers, condition memory, status lines and pending commits,
// laid out struct-of-arrays so the shared per-slot decode (operand
// offsets, op identity, duration, energy) is paid once per slot per cycle
// instead of once per lane.
//
// The lanes step together or not at all. The batch has one context
// counter and one energy sum, and it stays in the lane walk while every
// lane is live and every conditional branch agrees — the server's
// same-artifact coalescing case, and every batch before its first
// data-dependent branch. At the end of the first cycle in which a lane
// faulted or the branch select disagreed (or before cycle 0, when a lane's
// live-ins did not bind), resume hands each surviving lane to the
// production walk (Decoded.walk), which finishes it alone from the next
// cycle at that lane's own successor, with the batch's energy so far. A
// divergent lane so runs the same code a solo run does. Like that walk,
// the lane walk steps a straight-line block of contexts per dispatch and
// checks the watchdog, cancellation and CCNT once per block (blockEnd); a
// lane fault ends the block after the faulting cycle, and branch
// agreement is checked at the block's last context.
//
// The lane walk commits like the scalar walks: routed operands are plain
// RF reads at their predecoded offset, the context header (ctxMeta) gates
// every phase and names the C-Box slots phase 2 latches, writes predecode
// proves unobservable when early (dslot.direct) land at issue, and the
// rest wait in a due-cycle ring that an outstanding-entry count skips when
// empty. What is not per-slot work it shares with them rather than copies:
// the run state and its pool (getState, putState), the commit record and
// its queue (pend, enqueue), and, each taking a slab stride and a lane,
// which the scalar walks pass as 1 and 0, live-in binding (begin), the
// halt result (result) and the host-fault text (dmaFault). Only the issue
// loops and the drain are the lane walk's own, specialised so a batched
// cycle's per-lane cost is kept small:
//
//   - all lane slabs are lane-innermost (rf[off*L+lane], not
//     rf[lane*rfTotal+off]), so the N lanes touched by one slot share one
//     or two cache lines instead of N, and every issue loop runs over row
//     subslices (rf[off*L:][:L]), with no per-lane index arithmetic;
//   - the zero and constant words are rows of L lanes, so operands are
//     read without a mode test;
//   - a slot's opcode picks one loop over its lanes (aluRow, holdsRow),
//     whose arch.Eval or arch.Holds call has a constant opcode the
//     compiler folds, so the op table still defines every op; a predicated
//     write evaluates the row, then selects by outPE; phase 4 joins the
//     C-Box operand rows (cboxWord.rows);
//   - the batch's buckets sit behind one occupancy bitmask, so a cycle
//     with nothing due costs one word test;
//   - loads from arrays no store ever targets (dslot.resolveLoad) read
//     the host value at issue even when not direct, and defer only the
//     register write; out of range, they fault at commit.
//
// Results are byte-identical to N scalar runs: the batch's energy
// accumulates in slot order (the same additions in the same order from the
// same zero as each lane's scalar run), commits settle in the scalar order,
// a lane that faults keeps its first error and commits nothing more, and
// the watchdog and cancellation checks fire on the same cycle counter a
// scalar run would have used.
package sim

import (
	"context"
	"slices"

	"cgra/internal/arch"
	"cgra/internal/ir"
)

// BatchRequest is one lane of a batched run: the live-in arguments and the
// host heap that lane's DMA traffic targets. Hosts must be distinct (or
// the caller must accept interleaved DMA) — the server layer clones a
// scratch heap per lane.
type BatchRequest struct {
	Args map[string]int32
	Host *ir.Host
}

// BatchResult is one lane's outcome: exactly one of Res or Err is set.
type BatchResult struct {
	Res *Result
	Err error
}

// RunBatch executes the decoded program once per request as data-parallel
// lanes sharing one slot-dispatch walk. It has the same watchdog and
// cancellation semantics as the scalar walks — limit bounds every lane's
// cycle count (zero or negative means 500M, as for Machine.MaxCycles), and
// ctx is checked on the same cycle cadence — and each lane's entry in the
// result slice carries either that lane's Result or that lane's error; one
// lane's fault never poisons its siblings.
func (d *Decoded) RunBatch(ctx context.Context, limit int64, reqs []BatchRequest) []BatchResult {
	out := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	limit = cycleLimit(limit)
	ls := d.getState(len(reqs))
	defer d.putState(ls)

	bound := true
	for l := range reqs {
		out[l].Err = d.begin(ls.rf, ls.hostArr, ls.lanes, l, reqs[l].Args, reqs[l].Host)
		bound = bound && out[l].Err == nil
	}
	if !bound {
		d.resume(ctx, limit, ls, reqs, out, 0, 0, 0, 0)
		return out
	}
	ccnt := 0
	energy := 0.0
	for cycle := int64(0); ; {
		last, err := d.blockEnd(ctx, limit, cycle, ccnt)
		if err != nil {
			// The batch shares its counter and cycle: every lane fails alike.
			for l := range out {
				out[l].Err = err
			}
			return out
		}
		var split bool
		last, cycle, energy, split = d.stepLanes(ls, reqs, out, ccnt, last, cycle, energy)
		m := &d.cmeta[last]
		if m.halt {
			for l := range out {
				if out[l].Err == nil {
					out[l].Res = d.result(ls.rf, ls.lanes, l, cycle, energy)
				}
			}
			return out
		}
		seq, tgt := m.next, m.next
		if m.needCtrl {
			tgt = m.target
			split = split || slices.Contains(ls.outCtrl[1:], !ls.outCtrl[0])
		}
		if split {
			d.resume(ctx, limit, ls, reqs, out, seq, tgt, cycle, energy)
			return out
		}
		ccnt = int(seq)
		if ls.outCtrl[0] {
			ccnt = int(tgt)
		}
	}
}

// resume hands every lane without an error to the production walk, which
// runs it alone from cycle on, at tgt when the lane's latched branch
// select is true and at seq otherwise, with energy as its sum so far. It
// moves what the walk reads of the lane: the registers some slot or home
// touches (Decoded.used), condition memory with the status lines and their
// arrivals, the array bindings, and the pending commits, bucket by bucket
// in issue order, as they are: every walk queues the same record.
func (d *Decoded) resume(ctx context.Context, limit int64, ls *runState, reqs []BatchRequest, out []BatchResult, seq, tgt int32, cycle int64, energy float64) {
	L := ls.lanes
	for l := range out {
		if out[l].Err != nil {
			continue
		}
		rs := d.getState(1)
		for _, off := range d.used {
			rs.rf[off] = ls.rf[int(off)*L+l]
		}
		for s := range rs.cond {
			rs.cond[s] = ls.cond[s*L+l]
		}
		copy(rs.statusArrive, ls.statusArrive)
		for a := range rs.hostArr {
			rs.hostArr[a] = ls.hostArr[a*L+l]
		}
		for b, bucket := range ls.ring[l*d.ringSize:][:d.ringSize] {
			rs.ring[b] = append(rs.ring[b], bucket...)
			rs.pendAny += len(bucket)
		}
		c := seq
		if ls.outCtrl[l] {
			c = tgt
		}
		out[l].Res, out[l].Err = d.walk(ctx, limit, rs, reqs[l].Host, int(c), cycle, energy)
		d.putState(rs)
	}
}

// stepLanes executes contexts first..last of a straight-line block, one
// cycle each from cycle on, for every lane of ls, adding each issued
// slot's energy to energy in slot order. It stops early at the end of a
// cycle in which a lane faulted, and returns the last context it ran, the
// next cycle, the energy sum and whether a lane faulted. A faulting lane's
// BatchResult takes its first error, and the lane commits nothing more. A
// missing status faults every lane alike, so phase 5 is skipped then.
// Phase 2 leaves each lane's branch select in ls.outCtrl for the caller.
func (d *Decoded) stepLanes(ls *runState, reqs []BatchRequest, out []BatchResult, first, last int, cycle int64, energy float64) (int, int64, float64, bool) {
	L := ls.lanes
	rf := ls.rf
	faulted := false
	for c := first; c <= last; c++ {
		m := &d.cmeta[c]

		// Phase 1 (routing outputs present RF values) has no work in any
		// walk: routed operands carry their resolved RF offset.

		// Phase 2: the C-Box combinational outputs this context consumes.
		// Predication reads the outPE slot's row in place: only phase 4
		// writes a condition slot. The branch select is latched, since
		// the caller reads it after phase 4.
		pred := ls.never
		if m.outPE >= 0 {
			pred = ls.cond[int(m.outPE)*L:][:L]
		}
		if m.needCtrl {
			if sel := ls.outCtrl; m.outCtrl >= 0 {
				src := ls.cond[int(m.outCtrl)*L:][:len(sel)]
				for j := range sel {
					sel[j] = src[j] != m.ctrlInv
				}
			} else {
				clear(sel)
			}
		}

		// Phase 3: issue this context's non-NOP slots, each as one loop
		// over its lanes, so the slot decode is shared and each operand's
		// lane values sit on adjacent cache lines. Operands read their slab
		// rows unconditionally (zero and constant rows stand in for absent
		// sources).
		for i := m.lo; i < m.hi; i++ {
			sl := &d.slots[i]
			energy += sl.energy
			as, bs := rf[int(sl.aOff)*L:][:L], rf[int(sl.bOff)*L:][:L]
			finish := cycle + int64(sl.dur) - 1

			switch sl.shape {
			case shapeALU:
				aluRow(sl.op, rf[int(sl.wOff)*L:][:L], as, bs)
			case shapePredALU:
				vals := ls.vals
				aluRow(sl.op, vals, as, bs)
				dst := rf[int(sl.wOff)*L:][:L]
				for j, p := range pred {
					if p {
						dst[j] = vals[j]
					}
				}
			case shapeCompare:
				holdsRow(sl.op, ls.cond[(d.cbSlots+int(sl.pe))*L:][:L], as, bs)
				ls.statusArrive[sl.pe] = finish
			case shapeLoad:
				// The common fir/dot shape: a coefficient or sample fetch from
				// a read-only array, committed at issue; an index out of range
				// faults at commit.
				dst := rf[int(sl.wOff)*L:][:L]
				for j, arr := range ls.hostArr[int(sl.array)*L:][:L] {
					if a := as[j]; a >= 0 && int(a) < len(arr) {
						dst[j] = arr[a]
					} else {
						ls.enqueue(d, j, finish, pend{wOff: sl.wOff, index: a, meta: sl.dma()})
					}
				}
			default:
				// Ring-bound writes, stores, non-direct or predicated loads.
				squash := sl.predicated
				switch sl.kind {
				case slotLoad:
					dst := rf[int(sl.wOff)*L:][:L]
					arrs := ls.hostArr[int(sl.array)*L:][:L]
					dma := sl.dma()
					for j, a := range as {
						switch {
						case squash && !pred[j]:
						case !sl.resolveLoad || a < 0 || int(a) >= len(arrs[j]):
							ls.enqueue(d, j, finish, pend{wOff: sl.wOff, index: a, meta: dma})
						case sl.direct:
							dst[j] = arrs[j][a]
						default:
							ls.enqueue(d, j, finish, pend{wOff: sl.wOff, value: arrs[j][a]})
						}
					}
				case slotStore:
					dma := sl.dma()
					for j, a := range as {
						if !squash || pred[j] {
							ls.enqueue(d, j, finish, pend{wOff: sl.wOff, index: a, value: bs[j], meta: dma})
						}
					}
				default: // slotALU: direct writes have their own shapes
					if !sl.writeEnable {
						continue // energy accounted; the result is discarded
					}
					aluRow(sl.op, ls.vals, as, bs)
					for j, v := range ls.vals {
						if !squash || pred[j] {
							ls.enqueue(d, j, finish, pend{wOff: sl.wOff, value: v})
						}
					}
				}
			}
		}

		// Phase 4: C-Box consumes a status / recombines. Condition memory is
		// only read by this phase and the (already latched) phase-2
		// outputs, so the write lands immediately.
		if m.cbox >= 0 {
			w := &d.cbox[m.cbox]
			if w.status >= 0 && ls.statusArrive[w.status] != cycle {
				err := d.missingStatus(c)
				for j := range out {
					out[j].Err = err
				}
				return c, cycle + 1, energy, true
			}
			a, b := ls.never, ls.never
			if w.a >= 0 {
				a = ls.cond[int(w.a)*L:][:L]
			}
			if w.b >= 0 {
				b = ls.cond[int(w.b)*L:][:L]
			}
			w.rows(ls.cond[int(w.write)*L:][:L], a, b)
		}

		// Phase 5: end-of-cycle commits — drain this cycle's due bucket of
		// every lane. The outstanding count and the occupancy bitmask make
		// a cycle with nothing due one test (direct writes never enter the
		// ring).
		bkt := int(cycle) & d.ringMask
		if bit := uint64(1) << uint(bkt); ls.pendAny > 0 && (ls.due&bit != 0 || d.ringSize > 64) {
			ls.due &^= bit
			for j := range L {
				due := ls.ring[j*d.ringSize+bkt]
				ls.ring[j*d.ringSize+bkt] = due[:0]
				ls.pendAny -= len(due)
				for pi := range due {
					pw := &due[pi]
					if pw.meta == 0 {
						rf[int(pw.wOff)*L+j] = pw.value
						continue
					}
					array, load := pw.meta>>3, pw.meta&pendLoad != 0
					arr := ls.hostArr[int(array)*L+j]
					if pw.index < 0 || int(pw.index) >= len(arr) {
						out[j].Err, faulted = d.dmaFault(reqs[j].Host, array, pw.index, pw.value, load), true
						break
					}
					if load {
						rf[int(pw.wOff)*L+j] = arr[pw.index]
					} else {
						arr[pw.index] = pw.value
					}
				}
			}
		}
		cycle++
		if faulted {
			return c, cycle, energy, true
		}
	}
	return last, cycle, energy, false
}

// aluRow sets dst[j] to op on a[j] and b[j] for every lane j. Each opcode
// has its own loop, whose constant-opcode call of the op table's Eval the
// compiler inlines and folds to the one operation.
func aluRow(op arch.OpCode, dst, a, b []int32) {
	a, b = a[:len(dst)], b[:len(dst)]
	switch op {
	case arch.IADD:
		for j := range dst {
			dst[j] = arch.Eval(arch.IADD, a[j], b[j])
		}
	case arch.ISUB:
		for j := range dst {
			dst[j] = arch.Eval(arch.ISUB, a[j], b[j])
		}
	case arch.IMUL:
		for j := range dst {
			dst[j] = arch.Eval(arch.IMUL, a[j], b[j])
		}
	case arch.IAND:
		for j := range dst {
			dst[j] = arch.Eval(arch.IAND, a[j], b[j])
		}
	case arch.IOR:
		for j := range dst {
			dst[j] = arch.Eval(arch.IOR, a[j], b[j])
		}
	case arch.IXOR:
		for j := range dst {
			dst[j] = arch.Eval(arch.IXOR, a[j], b[j])
		}
	case arch.ISHL:
		for j := range dst {
			dst[j] = arch.Eval(arch.ISHL, a[j], b[j])
		}
	case arch.ISHR:
		for j := range dst {
			dst[j] = arch.Eval(arch.ISHR, a[j], b[j])
		}
	case arch.IUSHR:
		for j := range dst {
			dst[j] = arch.Eval(arch.IUSHR, a[j], b[j])
		}
	case arch.INEG:
		for j := range dst {
			dst[j] = arch.Eval(arch.INEG, a[j], b[j])
		}
	case arch.INOT:
		for j := range dst {
			dst[j] = arch.Eval(arch.INOT, a[j], b[j])
		}
	default: // MOVE and CONST pass a through
		for j := range dst {
			dst[j] = arch.Eval(arch.MOVE, a[j], b[j])
		}
	}
}

// holdsRow sets dst[j] to the status compare op sends for a[j] and b[j],
// one loop per opcode as in aluRow.
func holdsRow(op arch.OpCode, dst []bool, a, b []int32) {
	a, b = a[:len(dst)], b[:len(dst)]
	switch op {
	case arch.IFLT:
		for j := range dst {
			dst[j] = arch.Holds(arch.IFLT, a[j], b[j])
		}
	case arch.IFLE:
		for j := range dst {
			dst[j] = arch.Holds(arch.IFLE, a[j], b[j])
		}
	case arch.IFGT:
		for j := range dst {
			dst[j] = arch.Holds(arch.IFGT, a[j], b[j])
		}
	case arch.IFGE:
		for j := range dst {
			dst[j] = arch.Holds(arch.IFGE, a[j], b[j])
		}
	case arch.IFEQ:
		for j := range dst {
			dst[j] = arch.Holds(arch.IFEQ, a[j], b[j])
		}
	default: // IFNE
		for j := range dst {
			dst[j] = arch.Holds(arch.IFNE, a[j], b[j])
		}
	}
}
