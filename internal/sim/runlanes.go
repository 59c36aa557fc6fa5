// Batched execution lanes: one predecoded microprogram walk amortized
// across N independent requests for the same artifact. Each lane carries
// its own register slab, condition memory, status slots, pending commits
// and context counter, laid out struct-of-arrays so the shared per-slot
// decode (operand multiplexer settings, op identity, duration, energy) is
// paid once per slot per cycle instead of once per lane.
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
//     or two cache lines instead of N, and every per-slot index is hoisted
//     out of the lane loop;
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
// Control flow is allowed to diverge: lanes advance their own CCNT. While
// every lane shares a context — the server's same-artifact coalescing
// case, and every batch before its first data-dependent branch — the whole
// batch steps as one group, a single accumulator stands in for every
// lane's identical energy sum, and no lane's CCNT is ever written; the
// first data-dependent branch that splits the group materializes the
// per-lane state and drops the run into per-group stepping, walking
// maximal runs of active lanes sharing a context. Lanes fail and finish
// independently: a finished or faulted lane is compacted out of the
// active set and stops costing anything, so one short gcd lane never
// stalls a long fir lane.
//
// Results are byte-identical to N scalar runs: per-lane energy accumulates
// in slot order (the uniform accumulator performs the same additions in
// the same order from the same zero), commits settle in the scalar order,
// and the watchdog and cancellation checks fire on the same global cycle
// counter a scalar run would have used.
package sim

import (
	"context"
	"fmt"

	"cgra/internal/arch"
	"cgra/internal/ctxgen"
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

const laneSrcNone = int8(ctxgen.SrcNone)

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

	rf []int32 // rfTotal × lanes
	condState
	hostArr  [][]int32 // arrays × lanes
	pend     [][]lpend // lanes × ringSize due-cycle buckets
	pendMask []uint64  // per-lane bucket-occupancy bits (ringSize ≤ 64)
	pendAny  int       // outstanding ring entries across all lanes
	energyU  float64   // uniform-mode accumulator (== every lane's sum)
	energy   []float64
	ccnt     []int32
	outPE    []bool
	outCtrl  []bool
	dead     []bool
	active   []int32
	scratch  []int32 // mid-step group compaction buffer
}

// getLaneState draws a laneState with capacity for n lanes from the pool,
// reset exactly like a scalar runState: registers and condition memory
// zeroed, status arrivals cleared, commit buckets emptied.
func (d *Decoded) getLaneState(n int) *laneState {
	ls, _ := d.lanePool.Get().(*laneState)
	if ls == nil || ls.lanes < n {
		grown := n
		if ls != nil && 2*ls.lanes > grown {
			grown = 2 * ls.lanes
		}
		ls = &laneState{
			lanes: grown,
			rf:    make([]int32, d.rfTotal*grown),
			condState: condState{
				cond:         make([]bool, (d.cbSlots+d.numPE)*grown),
				statusArrive: make([]int64, d.numPE*grown),
			},
			hostArr:  make([][]int32, len(d.arrays)*grown),
			pend:     make([][]lpend, grown*d.ringSize),
			pendMask: make([]uint64, grown),
			energy:   make([]float64, grown),
			ccnt:     make([]int32, grown),
			outPE:    make([]bool, grown),
			outCtrl:  make([]bool, grown),
			dead:     make([]bool, grown),
			active:   make([]int32, 0, grown),
			scratch:  make([]int32, 0, grown),
		}
		for i := range ls.pend {
			ls.pend[i] = make([]lpend, 0, 4)
		}
	}
	// Slabs are lane-innermost, so a partial reset would be strided;
	// clearing the whole slab is a handful of KB and runs once per batch.
	clear(ls.rf)
	clear(ls.cond)
	for i := range ls.statusArrive {
		ls.statusArrive[i] = -1
	}
	for i := 0; i < n*d.ringSize; i++ {
		ls.pend[i] = ls.pend[i][:0]
	}
	ls.pendAny = 0
	ls.energyU = 0
	for i := 0; i < n; i++ {
		ls.pendMask[i] = 0
		ls.energy[i] = 0
		ls.ccnt[i] = 0
		ls.dead[i] = false
	}
	return ls
}

func (d *Decoded) putLaneState(ls *laneState) {
	for i := range ls.hostArr {
		ls.hostArr[i] = nil // do not pin host heaps beyond the run
	}
	ls.active = ls.active[:0]
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
	n := len(reqs)
	if n == 0 {
		return out
	}
	limit = cycleLimit(limit)
	ls := d.getLaneState(n)
	defer d.putLaneState(ls)
	L := ls.lanes

	active := ls.active[:0]
	for l := 0; l < n; l++ {
		if out[l].Err = d.begin(ls.rf, ls.hostArr, L, l, reqs[l].Args, reqs[l].Host); out[l].Err == nil {
			active = append(active, int32(l))
		}
	}

	// While uniform, every active lane shares one CCNT (held here, never
	// written per lane) and the batch steps as a single group with no scan.
	// The first data-dependent branch that splits the group drops the run
	// into per-group stepping for good (re-convergence is possible but rare
	// and never worth detecting).
	uniform := true
	cUni := int32(0)
	var cycle int64
	for len(active) > 0 {
		if cycle >= limit {
			for _, l := range active {
				cc := int(ls.ccnt[l])
				if uniform {
					cc = int(cUni)
				}
				out[l].Err = &WatchdogError{Limit: limit, CCNT: cc}
			}
			break
		}
		if cycle&(ctxCheckInterval-1) == 0 {
			if err := ctx.Err(); err != nil {
				for _, l := range active {
					out[l].Err = fmt.Errorf("sim: run cancelled at cycle %d: %w", cycle, err)
				}
				break
			}
		}
		deaths := 0
		if uniform {
			dd, split, next := d.stepLanes(ls, reqs, out, active, int(cUni), cycle, true)
			deaths = dd
			if split {
				uniform = false
			} else {
				cUni = next
			}
		} else {
			// Step maximal runs of consecutive active lanes sharing a
			// CCNT. Grouping is pure amortization — per-lane state keeps
			// lanes independent — so no sorting is needed.
			for gi := 0; gi < len(active); {
				c := ls.ccnt[active[gi]]
				ge := gi + 1
				for ge < len(active) && ls.ccnt[active[ge]] == c {
					ge++
				}
				dd, _, _ := d.stepLanes(ls, reqs, out, active[gi:ge], int(c), cycle, false)
				deaths += dd
				gi = ge
			}
		}
		cycle++
		if deaths > 0 {
			// Compact finished/faulted lanes out of the active set,
			// keeping lane order stable so groups stay maximal.
			kept := active[:0]
			for _, l := range active {
				if !ls.dead[l] {
					kept = append(kept, l)
				}
			}
			active = kept
		}
	}
	return out
}

// stepLanes executes one cycle of context c for every lane in group. Lanes
// that halt, fault, or consume a missing status are marked dead and their
// BatchResult is filled in. It returns how many lanes died this step (so
// the caller compacts only when needed), whether a conditional branch sent
// group members different ways, and the group's shared next context when
// it did not split. In uniform mode per-lane CCNT and energy are not
// maintained — the caller holds the shared CCNT and ls.energyU holds the
// (identical) energy sum — and both are materialized for every lane the
// moment the group splits. Lane deaths mid-step compact the working group
// so the hot loops never test a per-lane dead flag.
func (d *Decoded) stepLanes(ls *laneState, reqs []BatchRequest, out []BatchResult, group []int32, c int, cycle int64, uniform bool) (deaths int, split bool, next int32) {
	if c < 0 || c >= d.numCtx {
		for _, l := range group {
			out[l].Err = fmt.Errorf("sim: CCNT %d out of range", c)
			ls.dead[l] = true
		}
		return len(group), false, 0
	}
	m := &d.cmeta[c]
	L := ls.lanes
	ring := d.ringSize
	maskable := ring <= 64
	rf := ls.rf
	died := false
	// compactLive filters dead lanes out of the working group. The scratch
	// buffer is reused; filtering from scratch into itself only shrinks it.
	compactLive := func(g []int32) []int32 {
		dst := ls.scratch[:0]
		for _, l := range g {
			if !ls.dead[l] {
				dst = append(dst, l)
			}
		}
		ls.scratch = dst[:0:cap(dst)]
		died = false
		return dst
	}

	// Phase 1 (routing outputs present RF values) has no work in either
	// walk: routed operands carry their resolved RF offset.

	// Phase 2: latch the C-Box combinational outputs, but only the ones
	// this context consumes (predication for squash, branch-select for the
	// CCU). The latch must happen before phase 4 writes condition memory.
	if m.hasPred {
		base := int(m.outPE) * L
		for _, l := range group {
			ls.outPE[l] = m.outPE >= 0 && ls.cond[base+int(l)]
		}
	}
	if m.needCtrl {
		base := int(m.outCtrl) * L
		for _, l := range group {
			ls.outCtrl[l] = m.outCtrl >= 0 && ls.cond[base+int(l)] != m.ctrlInv
		}
	}

	// Phase 3: issue this context's non-NOP slots, lanes innermost so the
	// slot decode is shared and each operand's lane values sit on adjacent
	// cache lines. Energy accumulates per lane in slot order, matching the
	// scalar path bit for bit; while the group is uniform every lane's sum
	// is the same chain of additions, so one accumulator stands in for all.
	for i := m.lo; i < m.hi; i++ {
		sl := &d.slots[i]
		aMode, bMode := sl.aMode, sl.bMode
		aReg, bReg := int(sl.aOff)*L, int(sl.bOff)*L
		op := sl.op
		finish := cycle + int64(sl.dur) - 1
		bkt := int(finish) & d.ringMask
		bit := uint64(1) << uint(bkt) // 0 beyond 64 buckets: mask unused then
		if uniform {
			ls.energyU += sl.energy
		} else {
			en := sl.energy
			for _, l := range group {
				ls.energy[l] += en
			}
		}

		switch sl.kind {
		case slotCompare:
			stIdx, valIdx := int(sl.pe)*L, (d.cbSlots+int(sl.pe))*L
			for _, l := range group {
				li := int(l)
				var a, b int32
				if aMode != laneSrcNone {
					a = rf[aReg+li]
				}
				if bMode != laneSrcNone {
					b = rf[bReg+li]
				}
				ls.cond[valIdx+li] = arch.Holds(op, a, b)
				ls.statusArrive[stIdx+li] = finish
			}
		case slotLoad:
			pred := sl.predicated
			resolve := sl.resolveLoad
			direct := sl.direct
			arrBase := int(sl.array) * L
			wIdx := int(sl.wOff) * L
			if resolve && direct && !pred {
				// The common fir/dot shape: a coefficient or sample fetch
				// from a read-only array, committed at issue.
				for _, l := range group {
					li := int(l)
					var a int32
					if aMode != laneSrcNone {
						a = rf[aReg+li]
					}
					arr := ls.hostArr[arrBase+li]
					if a < 0 || int(a) >= len(arr) {
						out[l].Err = d.dmaFault(reqs[l].Host, sl.array, a, 0, true)
						ls.dead[l] = true
						deaths++
						died = true
						continue
					}
					rf[wIdx+li] = arr[a]
				}
			} else {
				dmaMeta := sl.array<<2 | lpLoad | lpDMA
				for _, l := range group {
					li := int(l)
					var a int32
					if aMode != laneSrcNone {
						a = rf[aReg+li]
					}
					if pred && !ls.outPE[l] {
						continue
					}
					if resolve {
						arr := ls.hostArr[arrBase+li]
						if a < 0 || int(a) >= len(arr) {
							out[l].Err = d.dmaFault(reqs[l].Host, sl.array, a, 0, true)
							ls.dead[l] = true
							deaths++
							died = true
							continue
						}
						if direct {
							rf[wIdx+li] = arr[a]
						} else {
							pb := li*ring + bkt
							ls.pend[pb] = append(ls.pend[pb], lpend{wOff: sl.wOff, value: arr[a]})
							ls.pendMask[li] |= bit
							ls.pendAny++
						}
					} else {
						pb := li*ring + bkt
						ls.pend[pb] = append(ls.pend[pb], lpend{wOff: sl.wOff, index: a, meta: dmaMeta})
						ls.pendMask[li] |= bit
						ls.pendAny++
					}
				}
			}
		case slotStore:
			pred := sl.predicated
			dmaMeta := sl.array<<2 | lpDMA
			for _, l := range group {
				li := int(l)
				var a, b int32
				if aMode != laneSrcNone {
					a = rf[aReg+li]
				}
				if bMode != laneSrcNone {
					b = rf[bReg+li]
				}
				if pred && !ls.outPE[l] {
					continue
				}
				pb := li*ring + bkt
				ls.pend[pb] = append(ls.pend[pb], lpend{index: a, value: b, meta: dmaMeta})
				ls.pendMask[li] |= bit
				ls.pendAny++
			}
		default: // slotALU
			if !sl.writeEnable {
				continue // energy accounted; the result is discarded
			}
			pred := sl.predicated
			direct := sl.direct
			wIdx := int(sl.wOff) * L
			imm := sl.imm
			if direct && !pred {
				for _, l := range group {
					li := int(l)
					a, b := imm, int32(0)
					if aMode != laneSrcNone {
						a = rf[aReg+li]
					}
					if bMode != laneSrcNone {
						b = rf[bReg+li]
					}
					rf[wIdx+li] = arch.Eval(op, a, b)
				}
			} else {
				for _, l := range group {
					li := int(l)
					if pred && !ls.outPE[l] {
						continue
					}
					a, b := imm, int32(0)
					if aMode != laneSrcNone {
						a = rf[aReg+li]
					}
					if bMode != laneSrcNone {
						b = rf[bReg+li]
					}
					v := arch.Eval(op, a, b)
					if direct {
						rf[wIdx+li] = v
					} else {
						pb := li*ring + bkt
						ls.pend[pb] = append(ls.pend[pb], lpend{wOff: sl.wOff, value: v})
						ls.pendMask[li] |= bit
						ls.pendAny++
					}
				}
			}
		}
		if died {
			group = compactLive(group)
			if len(group) == 0 {
				return deaths, split, 0
			}
		}
	}

	// Phase 4: C-Box consumes a status / recombines. Condition memory is
	// only read by this phase and the (already latched) phase-2 outputs,
	// so the write lands immediately.
	if m.needCBox {
		w := &d.cbox[c]
		wIdx := int(w.write) * L
		for _, l := range group {
			v, ok := w.eval(&ls.condState, L, int(l), cycle)
			if !ok {
				out[l].Err = d.missingStatus(c)
				ls.dead[l] = true
				deaths++
				died = true
				continue
			}
			ls.cond[wIdx+int(l)] = v
		}
		if died {
			group = compactLive(group)
			if len(group) == 0 {
				return deaths, split, 0
			}
		}
	}

	// Phase 5: end-of-cycle commits — drain this cycle's due bucket. The
	// global outstanding count makes ring-free stretches one integer test,
	// and the occupancy bitmask keeps quiet lanes at a single word test
	// (direct writes never enter the ring).
	if ls.pendAny > 0 {
		bkt := int(cycle) & d.ringMask
		bit := uint64(1) << uint(bkt)
		for _, l := range group {
			li := int(l)
			if maskable {
				if ls.pendMask[li]&bit == 0 {
					continue
				}
				ls.pendMask[li] &^= bit
			}
			pb := li*ring + bkt
			bucket := ls.pend[pb]
			if len(bucket) == 0 {
				continue
			}
			ls.pendAny -= len(bucket)
			for pi := range bucket {
				pw := &bucket[pi]
				if pw.meta == 0 {
					rf[int(pw.wOff)*L+li] = pw.value
					continue
				}
				arrID := int(pw.meta >> 2)
				load := pw.meta&lpLoad != 0
				arr := ls.hostArr[arrID*L+li]
				if pw.index < 0 || int(pw.index) >= len(arr) {
					out[l].Err = d.dmaFault(reqs[l].Host, int32(arrID), pw.index, pw.value, load)
					ls.dead[l] = true
					deaths++
					died = true
					break
				}
				if load {
					rf[int(pw.wOff)*L+li] = arr[pw.index]
				} else {
					arr[pw.index] = pw.value
				}
			}
			ls.pend[pb] = bucket[:0]
		}
		if died {
			group = compactLive(group)
			if len(group) == 0 {
				return deaths, split, 0
			}
		}
	}

	// Phase 6: next CCNT, or halt the whole group at a terminal context.
	if m.halt {
		for _, l := range group {
			e := ls.energy[l]
			if uniform {
				e = ls.energyU
			}
			out[l].Res = d.result(rf, L, int(l), cycle+1, e)
			ls.dead[l] = true
		}
		return deaths + len(group), split, 0
	}
	if m.needCtrl {
		tgt, seq := m.target, m.next
		first := ls.outCtrl[group[0]]
		same := true
		for _, l := range group {
			if ls.outCtrl[l] != first {
				same = false
				break
			}
		}
		if same {
			if first {
				next = tgt
			} else {
				next = seq
			}
			if !uniform {
				for _, l := range group {
					ls.ccnt[l] = next
				}
			}
			return deaths, false, next
		}
		// The group splits: materialize the per-lane CCNT and energy the
		// divergent path keeps from here on.
		if uniform {
			for _, l := range group {
				ls.energy[l] = ls.energyU
			}
		}
		for _, l := range group {
			if ls.outCtrl[l] {
				ls.ccnt[l] = tgt
			} else {
				ls.ccnt[l] = seq
			}
		}
		return deaths, true, 0
	}
	next = m.next
	if !uniform {
		for _, l := range group {
			ls.ccnt[l] = next
		}
	}
	return deaths, false, next
}
