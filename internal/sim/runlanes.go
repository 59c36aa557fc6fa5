// Batched execution lanes: one predecoded microprogram walk amortized
// across N independent requests for the same artifact. Each lane carries
// its own register slab, condition memory, status slots and pending
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
// divergent lane so runs the same code a solo run does; the lane walk
// itself has no per-lane context counter, energy or liveness.
//
// The lane walk commits like the scalar walks: routed operands are plain
// RF reads at their predecoded offset, the context header (ctxMeta) gates
// every phase and names the C-Box slots phase 2 latches, writes predecode
// proves unobservable when early (dslot.direct) land at issue, and the
// rest wait in a due-cycle ring that an outstanding-entry count skips when
// empty. What is not per-slot work it shares with them rather than copies:
// each takes a slab stride and a lane, which the scalar walks pass as 1
// and 0 — the decoded C-Box word's evaluation (cboxWord.eval), live-in
// binding (begin), the halt result (result) and the host-fault text
// (dmaFault). Only the issue loops are the lane walk's own, specialised so
// a batched cycle's per-lane cost is kept small:
//
//   - all lane slabs are lane-innermost (rf[off*L+lane], not
//     rf[lane*rfTotal+off]), so the N lanes touched by one slot share one
//     or two cache lines instead of N, and every issue loop runs over row
//     subslices (rf[off*L:][:n]), so the shaped ones do no index
//     arithmetic and no bounds check per lane;
//   - the zero and constant words are rows of L lanes, so operands are
//     read without a mode test;
//   - ring entries are 16 bytes and each lane's buckets sit behind an
//     occupancy bitmask, so a quiet lane costs one word test per cycle;
//   - loads from arrays no store ever targets (dslot.resolveLoad) read
//     the host value at issue even when not direct, and defer only the
//     register write;
//   - op evaluation (arch.Eval, arch.Holds) inlines into the slot walk, as
//     the C-Box evaluation does into phase 4 — no per-lane calls, and no
//     unknown-op path, since Predecode refuses an op its PE does not
//     implement.
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
// (pend[l*ringSize+bkt]), since a drain walks one lane's bucket.
type laneState struct {
	lanes int // provisioned lane capacity == slab stride

	rf []int32 // slabLen × lanes: register, zero and constant rows
	condState
	hostArr  [][]int32 // arrays × lanes
	pend     [][]lpend // lanes × ringSize due-cycle buckets
	pendMask []uint64  // per-lane bucket-occupancy bits (ringSize ≤ 64)
	pendAny  int       // outstanding ring entries across all lanes
	outPE    []bool
	outCtrl  []bool
}

// getLaneState draws a laneState with capacity for n lanes from the pool,
// reset exactly like a scalar runState: registers and condition memory
// zeroed, constant rows re-seeded, status arrivals cleared, commit buckets
// emptied.
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
				statusArrive: make([]int64, d.numPE*grown),
			},
			hostArr:  make([][]int32, len(d.arrays)*grown),
			pend:     make([][]lpend, grown*d.ringSize),
			pendMask: make([]uint64, grown),
			outPE:    make([]bool, grown),
			outCtrl:  make([]bool, grown),
		}
		for i := range ls.pend {
			ls.pend[i] = make([]lpend, 0, 4)
		}
	}
	// Slabs are lane-innermost, so a partial reset would be strided;
	// clearing every register row is a handful of KB and runs once per
	// batch. The zero row is cleared with them; each constant row is its
	// immediate in every lane.
	L := ls.lanes
	clear(ls.rf[:(d.rfTotal+1)*L])
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
	clear(ls.pendMask[:n])
	ls.pendAny = 0
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
	c := 0
	energy := 0.0
	for cycle := int64(0); ; cycle++ {
		var err error
		switch {
		case cycle >= limit:
			err = &WatchdogError{Limit: limit, CCNT: c}
		case cycle&(ctxCheckInterval-1) == 0 && ctx.Err() != nil:
			err = fmt.Errorf("sim: run cancelled at cycle %d: %w", cycle, ctx.Err())
		case c < 0 || c >= d.numCtx:
			err = fmt.Errorf("sim: CCNT %d out of range", c)
		}
		if err != nil {
			// The batch shares its counter and cycle: every lane fails alike.
			for l := range out {
				out[l].Err = err
			}
			return out
		}
		m := &d.cmeta[c]
		var split bool
		energy, split = d.stepLanes(ls, reqs, out, c, cycle, energy)
		if m.halt {
			for l := range out {
				if out[l].Err == nil {
					out[l].Res = d.result(ls.rf, L, l, cycle+1, energy)
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
			d.resume(ctx, limit, ls, reqs, out, seq, tgt, cycle+1, energy)
			return out
		}
		c = int(seq)
		if ls.outCtrl[0] {
			c = int(tgt)
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
		for p := range rs.statusArrive {
			rs.statusArrive[p] = ls.statusArrive[p*L+l]
		}
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

// push queues p in lane j's ring bucket bkt, whose occupancy bit is bit.
func (ls *laneState) push(ring, j, bkt int, bit uint64, p lpend) {
	pb := j*ring + bkt
	ls.pend[pb] = append(ls.pend[pb], p)
	ls.pendMask[j] |= bit
	ls.pendAny++
}

// stepLanes executes one cycle of context c for the lanes [0, len(out)),
// adding each issued slot's energy to energy in slot order, and returns
// the sum and whether a lane faulted. A faulting lane's BatchResult takes
// its first error; the lane rides out the rest of the cycle, but phase 5
// commits nothing for it. Phase 2 leaves each lane's branch select in
// ls.outCtrl for the caller.
func (d *Decoded) stepLanes(ls *laneState, reqs []BatchRequest, out []BatchResult, c int, cycle int64, energy float64) (float64, bool) {
	m := &d.cmeta[c]
	L, n := ls.lanes, len(out)
	ring := d.ringSize
	rf := ls.rf
	faulted := false

	// Phase 1 (routing outputs present RF values) has no work in either
	// walk: routed operands carry their resolved RF offset.

	// Phase 2: latch the C-Box combinational outputs, but only the ones
	// this context consumes (predication for squash, branch-select for the
	// CCU). The latch must happen before phase 4 writes condition memory.
	if m.hasPred {
		if pred := ls.outPE[:n]; m.outPE >= 0 {
			copy(pred, ls.cond[int(m.outPE)*L:][:n])
		} else {
			clear(pred)
		}
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

	// Phase 3: issue this context's non-NOP slots, lanes innermost so the
	// slot decode is shared and each operand's lane values sit on adjacent
	// cache lines. Operands read their slab rows unconditionally (zero and
	// constant rows stand in for absent sources).
	for i := m.lo; i < m.hi; i++ {
		sl := &d.slots[i]
		energy += sl.energy
		op := sl.op
		as, bs := rf[int(sl.aOff)*L:][:n], rf[int(sl.bOff)*L:][:n]
		finish := cycle + int64(sl.dur) - 1

		switch sl.shape {
		case shapeALU:
			dst := rf[int(sl.wOff)*L:][:n]
			for j := range dst {
				dst[j] = arch.Eval(op, as[j], bs[j])
			}
		case shapePredALU:
			dst := rf[int(sl.wOff)*L:][:n]
			pred := ls.outPE[:n]
			for j := range dst {
				if pred[j] {
					dst[j] = arch.Eval(op, as[j], bs[j])
				}
			}
		case shapeCompare:
			val := ls.cond[(d.cbSlots+int(sl.pe))*L:][:n]
			arrive := ls.statusArrive[int(sl.pe)*L:][:n]
			for j := range val {
				val[j] = arch.Holds(op, as[j], bs[j])
				arrive[j] = finish
			}
		case shapeLoad:
			// The common fir/dot shape: a coefficient or sample fetch from a
			// read-only array, committed at issue.
			dst := rf[int(sl.wOff)*L:][:n]
			for j, arr := range ls.hostArr[int(sl.array)*L:][:n] {
				if a := as[j]; a >= 0 && int(a) < len(arr) {
					dst[j] = arr[a]
				} else if out[j].Err == nil {
					out[j].Err = d.dmaFault(reqs[j].Host, sl.array, a, 0, true)
					faulted = true
				}
			}
		default:
			// Ring-bound writes, stores, non-direct or predicated loads.
			bkt := int(finish) & d.ringMask
			bit := uint64(1) << uint(bkt) // 0 beyond 64 buckets: mask unused then
			pred := ls.outPE[:n]
			squash := sl.predicated
			switch sl.kind {
			case slotLoad:
				dst := rf[int(sl.wOff)*L:][:n]
				arrs := ls.hostArr[int(sl.array)*L:][:n]
				dmaMeta := sl.array<<2 | lpLoad | lpDMA
				for j, a := range as {
					switch {
					case squash && !pred[j]:
					case !sl.resolveLoad:
						ls.push(ring, j, bkt, bit, lpend{wOff: sl.wOff, index: a, meta: dmaMeta})
					case a < 0 || int(a) >= len(arrs[j]):
						if out[j].Err == nil {
							out[j].Err = d.dmaFault(reqs[j].Host, sl.array, a, 0, true)
							faulted = true
						}
					case sl.direct:
						dst[j] = arrs[j][a]
					default:
						ls.push(ring, j, bkt, bit, lpend{wOff: sl.wOff, value: arrs[j][a]})
					}
				}
			case slotStore:
				dmaMeta := sl.array<<2 | lpDMA
				for j, a := range as {
					if !squash || pred[j] {
						ls.push(ring, j, bkt, bit, lpend{index: a, value: bs[j], meta: dmaMeta})
					}
				}
			default: // slotALU: direct writes have their own shapes
				if !sl.writeEnable {
					continue // energy accounted; the result is discarded
				}
				for j, a := range as {
					if !squash || pred[j] {
						ls.push(ring, j, bkt, bit, lpend{wOff: sl.wOff, value: arch.Eval(op, a, bs[j])})
					}
				}
			}
		}
	}

	// Phase 4: C-Box consumes a status / recombines. Condition memory is
	// only read by this phase and the (already latched) phase-2 outputs,
	// so the write lands immediately.
	if m.cbox >= 0 {
		w := &d.cbox[m.cbox]
		dst := ls.cond[int(w.write)*L:][:n]
		for j := range dst {
			v, ok := w.eval(&ls.condState, L, j, cycle)
			if !ok && out[j].Err == nil {
				out[j].Err = d.missingStatus(c)
				faulted = true
			}
			dst[j] = v
		}
	}

	// Phase 5: end-of-cycle commits — drain this cycle's due bucket. The
	// global outstanding count makes ring-free stretches one integer test,
	// and the occupancy bitmask keeps quiet lanes at a single word test
	// (direct writes never enter the ring).
	if ls.pendAny > 0 {
		bkt := int(cycle) & d.ringMask
		bit := uint64(1) << uint(bkt)
		maskable := ring <= 64
		for j := 0; j < n; j++ {
			if maskable {
				if ls.pendMask[j]&bit == 0 {
					continue
				}
				ls.pendMask[j] &^= bit
			}
			pb := j*ring + bkt
			bucket := ls.pend[pb]
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
	return energy, faulted
}
