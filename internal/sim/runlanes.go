// Batched execution lanes: one predecoded microprogram walk amortized
// across N independent requests for the same artifact. Each lane carries
// its own register slab, condition memory, status lines and pending
// commits, laid out struct-of-arrays so the shared per-slot decode
// (operand offsets, op identity, duration, energy) is paid once per slot
// per cycle instead of once per lane.
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
// the lane walk steps a straight-line block of contexts (ctxMeta.end) per
// dispatch, cut at the cycle budget and at every multiple of
// ctxCheckInterval, and checks the watchdog, cancellation and CCNT once
// per block; a lane fault ends the block after the faulting cycle, and
// branch agreement is checked at the block's last context.
//
// The lane walk commits like the scalar walks: routed operands are plain
// RF reads at their predecoded offset, the context header (ctxMeta) gates
// every phase and names the C-Box slots phase 2 latches, writes predecode
// proves unobservable when early (dslot.direct) land at issue, and the
// rest wait in a due-cycle ring that an outstanding-entry count skips when
// empty. What is not per-slot work it shares with them rather than copies:
// each takes a slab stride and a lane, which the scalar walks pass as 1
// and 0 — live-in binding (begin), the halt result (result) and the
// host-fault text (dmaFault). Only the issue loops are the lane walk's
// own, specialised so a batched cycle's per-lane cost is kept small:
//
//   - all lane slabs are lane-innermost (rf[off*L+lane], not
//     rf[lane*rfTotal+off]), so the N lanes touched by one slot share one
//     or two cache lines instead of N, and every issue loop runs over row
//     subslices (rf[off*L:][:n]), with no per-lane index arithmetic;
//   - the zero and constant words are rows of L lanes, so operands are
//     read without a mode test;
//   - a slot's opcode picks one loop over its lanes (aluRow, holdsRow),
//     whose arch.Eval or arch.Holds call has a constant opcode the
//     compiler folds, so the op table still defines every op; a predicated
//     write evaluates the row, then selects by outPE; phase 4 joins the
//     C-Box operand rows (cboxWord.rows);
//   - ring entries are 16 bytes and the batch's buckets sit behind one
//     occupancy bitmask, so a cycle with nothing due costs one word test;
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
	"fmt"
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

// lpend is one deferred lane commit: 16 bytes against the scalar walk's
// 24-byte fpend, because no hook ever needs a lane's PE or squashed
// writes. meta==0 is a plain register write; otherwise it carries the DMA
// array ID and direction.
type lpend struct {
	wOff  int32
	value int32 // ALU/resolved-load result, or the value a store writes
	index int32 // DMA array index
	meta  int32 // 0, or array<<2 | lpLoad? | lpDMA
}

const (
	lpDMA  = int32(1)
	lpLoad = int32(2)
)

// laneState is the reusable mutable state of one batched run. All slabs
// are lane-innermost with stride L == lanes: lane l's view of RF offset o
// is rf[o*L+l], of C-Box slot s cond[s*L+l], of PE p's status line
// cond[(cbSlots+p)*L+l]. Only the commit ring is lane-major
// (pend[l*ringSize+bkt]), since a drain walks one lane's bucket, and the
// status arrivals are the batch's, since its lanes issue together.
type laneState struct {
	lanes int // provisioned lane capacity == slab stride

	rf []int32 // slabLen × lanes: register, zero and constant rows
	condState
	hostArr [][]int32 // arrays × lanes
	pend    [][]lpend // lanes × ringSize due-cycle buckets
	due     uint64    // bucket-occupancy bits over all lanes (ringSize ≤ 64)
	pendAny int       // outstanding ring entries across all lanes
	outCtrl []bool    // each lane's latched branch select
	vals    []int32   // a row of ALU results on their way to a select or the ring
	never   []bool    // a row of false: an absent outPE or C-Box operand
}

// getLaneState draws a laneState with capacity for n lanes from the pool,
// reset exactly like a scalar runState: the used register rows and the
// zero row cleared, constant rows re-seeded, condition memory zeroed,
// status arrivals cleared, commit buckets emptied.
func (d *Decoded) getLaneState(n int) *laneState {
	ls, _ := d.lanePool.Get().(*laneState)
	if ls == nil || ls.lanes < n {
		grown := n
		if ls != nil && 2*ls.lanes > grown {
			grown = 2 * ls.lanes
		}
		ls = &laneState{
			lanes: grown,
			rf:    make([]int32, d.slabLen()*grown),
			condState: condState{
				cond:         make([]bool, (d.cbSlots+d.numPE)*grown),
				statusArrive: make([]int64, d.numPE),
			},
			hostArr: make([][]int32, len(d.arrays)*grown),
			pend:    make([][]lpend, grown*d.ringSize),
			outCtrl: make([]bool, grown),
			vals:    make([]int32, grown),
			never:   make([]bool, grown),
		}
		for i := range ls.pend {
			ls.pend[i] = make([]lpend, 0, 4)
		}
	}
	// No walk reads a register row outside Decoded.used, so only those
	// rows and the zero row need clearing; each constant row is its
	// immediate in every lane.
	L := ls.lanes
	for _, off := range d.used {
		clear(ls.rf[int(off)*L:][:L])
	}
	clear(ls.rf[d.rfTotal*L:][:L])
	for k, v := range d.consts {
		row := ls.rf[(d.rfTotal+1+k)*L:][:L]
		for i := range row {
			row[i] = v
		}
	}
	clear(ls.cond)
	for i := range ls.statusArrive {
		ls.statusArrive[i] = -1
	}
	for i := 0; i < n*d.ringSize; i++ {
		ls.pend[i] = ls.pend[i][:0]
	}
	ls.due, ls.pendAny = 0, 0
	return ls
}

func (d *Decoded) putLaneState(ls *laneState) {
	for i := range ls.hostArr {
		ls.hostArr[i] = nil // do not pin host heaps beyond the run
	}
	d.lanePool.Put(ls)
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
	ls := d.getLaneState(len(reqs))
	defer d.putLaneState(ls)
	L := ls.lanes

	bound := true
	for l := range reqs {
		out[l].Err = d.begin(ls.rf, ls.hostArr, L, l, reqs[l].Args, reqs[l].Host)
		bound = bound && out[l].Err == nil
	}
	if !bound {
		d.resume(ctx, limit, ls, reqs, out, 0, 0, 0, 0)
		return out
	}
	ccnt := 0
	energy := 0.0
	for cycle := int64(0); ; {
		var err error
		switch {
		case cycle >= limit:
			err = &WatchdogError{Limit: limit, CCNT: ccnt}
		case cycle&(ctxCheckInterval-1) == 0 && ctx.Err() != nil:
			err = fmt.Errorf("sim: run cancelled at cycle %d: %w", cycle, ctx.Err())
		case ccnt < 0 || ccnt >= d.numCtx:
			err = fmt.Errorf("sim: CCNT %d out of range", ccnt)
		}
		if err != nil {
			// The batch shares its counter and cycle: every lane fails alike.
			for l := range out {
				out[l].Err = err
			}
			return out
		}
		last := int(d.cmeta[ccnt].end)
		if n := min(limit-cycle, ctxCheckInterval-cycle&(ctxCheckInterval-1)); int64(last-ccnt) >= n {
			last = ccnt + int(n) - 1
		}
		var split bool
		last, cycle, energy, split = d.stepLanes(ls, reqs, out, ccnt, last, cycle, energy)
		m := &d.cmeta[last]
		if m.halt {
			for l := range out {
				if out[l].Err == nil {
					out[l].Res = d.result(ls.rf, L, l, cycle, energy)
				}
			}
			return out
		}
		seq, tgt := m.next, m.next
		if m.needCtrl {
			tgt = m.target
			split = split || slices.Contains(ls.outCtrl[1:len(out)], !ls.outCtrl[0])
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
// in issue order.
func (d *Decoded) resume(ctx context.Context, limit int64, ls *laneState, reqs []BatchRequest, out []BatchResult, seq, tgt int32, cycle int64, energy float64) {
	L := ls.lanes
	for l := range out {
		if out[l].Err != nil {
			continue
		}
		rs := d.getState()
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
		for b, bucket := range ls.pend[l*d.ringSize:][:d.ringSize] {
			for _, p := range bucket {
				f := fpend{wOff: p.wOff, value: p.value, index: p.index}
				if p.meta != 0 {
					f.isDMA, f.dmaLoad, f.array = true, p.meta&lpLoad != 0, p.meta>>2
				}
				rs.ring[b] = append(rs.ring[b], f)
			}
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

// push queues p to commit at the end of cycle finish in lane j's ring.
func (ls *laneState) push(d *Decoded, j int, finish int64, p lpend) {
	bkt := int(finish) & d.ringMask
	pb := j*d.ringSize + bkt
	ls.pend[pb] = append(ls.pend[pb], p)
	ls.due |= 1 << uint(bkt) // 0 beyond 64 buckets: the mask is unused then
	ls.pendAny++
}

// stepLanes executes contexts first..last of a straight-line block, one
// cycle each from cycle on, for the lanes [0, len(out)), adding each
// issued slot's energy to energy in slot order. It stops early at the end
// of a cycle in which a lane faulted, and returns the last context it ran,
// the next cycle, the energy sum and whether a lane faulted. A faulting
// lane's BatchResult takes its first error; the lane rides out the rest of
// the cycle, but phase 5 commits nothing for it. Phase 2 leaves each
// lane's branch select in ls.outCtrl for the caller.
func (d *Decoded) stepLanes(ls *laneState, reqs []BatchRequest, out []BatchResult, first, last int, cycle int64, energy float64) (int, int64, float64, bool) {
	L, n := ls.lanes, len(out)
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
		pred := ls.never[:n]
		if m.outPE >= 0 {
			pred = ls.cond[int(m.outPE)*L:][:n]
		}
		if m.needCtrl {
			if sel := ls.outCtrl[:n]; m.outCtrl >= 0 {
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
			as, bs := rf[int(sl.aOff)*L:][:n], rf[int(sl.bOff)*L:][:n]
			finish := cycle + int64(sl.dur) - 1

			switch sl.shape {
			case shapeALU:
				aluRow(sl.op, rf[int(sl.wOff)*L:][:n], as, bs)
			case shapePredALU:
				vals := ls.vals[:n]
				aluRow(sl.op, vals, as, bs)
				dst := rf[int(sl.wOff)*L:][:n]
				for j, p := range pred {
					if p {
						dst[j] = vals[j]
					}
				}
			case shapeCompare:
				holdsRow(sl.op, ls.cond[(d.cbSlots+int(sl.pe))*L:][:n], as, bs)
				ls.statusArrive[sl.pe] = finish
			case shapeLoad:
				// The common fir/dot shape: a coefficient or sample fetch from
				// a read-only array, committed at issue; an index out of range
				// faults at commit.
				dst := rf[int(sl.wOff)*L:][:n]
				dmaMeta := sl.array<<2 | lpLoad | lpDMA
				for j, arr := range ls.hostArr[int(sl.array)*L:][:n] {
					if a := as[j]; a >= 0 && int(a) < len(arr) {
						dst[j] = arr[a]
					} else {
						ls.push(d, j, finish, lpend{wOff: sl.wOff, index: a, meta: dmaMeta})
					}
				}
			default:
				// Ring-bound writes, stores, non-direct or predicated loads.
				squash := sl.predicated
				switch sl.kind {
				case slotLoad:
					dst := rf[int(sl.wOff)*L:][:n]
					arrs := ls.hostArr[int(sl.array)*L:][:n]
					dmaMeta := sl.array<<2 | lpLoad | lpDMA
					for j, a := range as {
						switch {
						case squash && !pred[j]:
						case !sl.resolveLoad || a < 0 || int(a) >= len(arrs[j]):
							ls.push(d, j, finish, lpend{wOff: sl.wOff, index: a, meta: dmaMeta})
						case sl.direct:
							dst[j] = arrs[j][a]
						default:
							ls.push(d, j, finish, lpend{wOff: sl.wOff, value: arrs[j][a]})
						}
					}
				case slotStore:
					dmaMeta := sl.array<<2 | lpDMA
					for j, a := range as {
						if !squash || pred[j] {
							ls.push(d, j, finish, lpend{index: a, value: bs[j], meta: dmaMeta})
						}
					}
				default: // slotALU: direct writes have their own shapes
					if !sl.writeEnable {
						continue // energy accounted; the result is discarded
					}
					vals := ls.vals[:n]
					aluRow(sl.op, vals, as, bs)
					for j, v := range vals {
						if !squash || pred[j] {
							ls.push(d, j, finish, lpend{wOff: sl.wOff, value: v})
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
				for j := range out {
					if out[j].Err == nil {
						out[j].Err = d.missingStatus(c)
						faulted = true
					}
				}
			}
			a, b := ls.never[:n], ls.never[:n]
			if w.a >= 0 {
				a = ls.cond[int(w.a)*L:][:n]
			}
			if w.b >= 0 {
				b = ls.cond[int(w.b)*L:][:n]
			}
			w.rows(ls.cond[int(w.write)*L:][:n], a, b)
		}

		// Phase 5: end-of-cycle commits — drain this cycle's due bucket. The
		// outstanding count and the occupancy bitmask make a cycle with
		// nothing due one test (direct writes never enter the ring).
		bkt := int(cycle) & d.ringMask
		if bit := uint64(1) << uint(bkt); ls.pendAny > 0 && (ls.due&bit != 0 || d.ringSize > 64) {
			ls.due &^= bit
			for j := 0; j < n; j++ {
				pb := j*d.ringSize + bkt
				bucket := ls.pend[pb]
				if len(bucket) == 0 {
					continue
				}
				ls.pend[pb] = bucket[:0]
				ls.pendAny -= len(bucket)
				if out[j].Err != nil {
					continue // a lane that faulted this cycle commits nothing
				}
				for pi := range bucket {
					pw := &bucket[pi]
					if pw.meta == 0 {
						rf[int(pw.wOff)*L+j] = pw.value
						continue
					}
					arrID := int(pw.meta >> 2)
					load := pw.meta&lpLoad != 0
					arr := ls.hostArr[arrID*L+j]
					if pw.index < 0 || int(pw.index) >= len(arr) {
						out[j].Err = d.dmaFault(reqs[j].Host, int32(arrID), pw.index, pw.value, load)
						faulted = true
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
