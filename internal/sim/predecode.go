// Predecoding compiles a ctxgen.Program once into a flat, cache-friendly
// microprogram the simulator executes with zero allocations per cycle. The
// paper's tool flow fixes the context stream at synthesis time
// (§IV: context memories addressed by one global CCNT), so everything
// cycle-invariant — which PE slots are non-NOP, operand multiplexer
// settings, routed-input source PEs, DMA array identities, op durations and
// energies, register-file base offsets — is resolved exactly once per
// artifact instead of once per simulated cycle.
//
// The decoded form is shared and immutable; mutable per-run scratch lives
// in a pooled runState, one type for every walk (a scalar run is a
// one-lane state), so concurrent runs of the same kernel reuse fixed
// buffers instead of reallocating them.
package sim

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"cgra/internal/arch"
	"cgra/internal/ctxgen"
	"cgra/internal/ir"
	"cgra/internal/sched"
)

// slot kinds: what the walk does with an issued operation.
const (
	slotALU = iota
	slotCompare
	slotLoad
	slotStore
)

// slot shapes: which issue path a hook-free walk takes (dslot.shape). The
// first four run with no further per-slot test; shapeOther keeps the
// general path, which tests kind, predication and the commit route.
const (
	shapeALU     = iota // unpredicated direct ALU write, CONST included
	shapeCompare        // compare: sets the PE's status line
	shapePredALU        // predicated direct ALU write
	shapeLoad           // unpredicated direct load
	shapeOther          // ring-bound writes, stores, other loads, discarded results
)

// dslot is one predecoded non-NOP PE context slot. All addresses are
// pre-resolved: RF reads/writes are flat offsets into the run state's
// single register slab, routed reads name the source PE directly, and the
// op's duration and energy are looked up at decode time.
type dslot struct {
	pe    int32
	kind  int8
	shape int8
	// Operand A/B: mode (SrcNone/SrcReg/SrcRoute) and flat slab offset,
	// read unconditionally by every walk. SrcNone points at the slab's zero
	// word and CONST's A at its constant word (see Decoded.consts). For
	// SrcRoute the offset is the source PE's presented register (resolved
	// at decode), so every walk reads a route as a plain RF read; the
	// hooked walk tests the mode only to call its route hook, and aSrc/bSrc
	// name the source PE for the hooks' route faults and events.
	aMode, bMode int8
	aOff, bOff   int32
	aSrc, bSrc   int32
	writeEnable  bool
	predicated   bool
	// direct marks a write a hook-free walk may commit straight into the RF
	// during issue instead of deferring to the end-of-cycle ring. For
	// single-cycle ALU writes the condition is that no later slot of the
	// same context reads wOff and no ring-committed writer ever targets
	// wOff. For multi-cycle ALU writes and resolved loads the commit
	// normally lands dur-1 cycles after issue, so the early commit is
	// additionally proven unobservable: no context reachable within dur-1
	// cycles reads or writes wOff, and the issuing context does not halt
	// (a halt drops the commit). RF offsets are per-PE, so every condition
	// is checkable at decode time.
	direct bool
	// resolveLoad marks a LOAD from an array no STORE in the program ever
	// targets: the loaded value cannot change between issue and commit, so
	// a hook-free walk may read the host array at issue. Only such loads
	// can be direct; the lane walk also resolves the rest at issue and
	// defers just the register write.
	resolveLoad bool
	// wOff is the register a write lands in, always below rfTotal: a slot
	// that writes nothing keeps its PE's first register, so no write can
	// reach the zero or constant words.
	wOff   int32
	op     arch.OpCode
	array  int32
	dur    int32
	energy float64
}

// decHome locates one live-in/live-out in the flat register slab.
type decHome struct {
	name string
	off  int32
}

// Decoded is the predecoded execution engine of one program: per-CCNT
// dense slabs listing only the non-NOP work of each context, plus the
// control tables and host-interface metadata the inner loop consumes.
// A Decoded is immutable after Predecode and safe for concurrent runs;
// per-run scratch state is drawn from an internal sync.Pool.
type Decoded struct {
	numPE  int
	numCtx int
	// rfOff[pe] is PE pe's base offset into the flat register slab. The
	// slab holds the rfTotal registers, then a zero word (offset rfTotal)
	// every SrcNone operand reads, then one word per CONST slot holding
	// its immediate: consts[k] at rfTotal+1+k. A run clears the used
	// registers and the zero word and re-seeds the constants; no write
	// targets either kind of word.
	rfOff   []int32
	rfTotal int
	consts  []int32
	cbSlots int

	// slots[cmeta[c].lo:cmeta[c].hi] are context c's non-NOP PE slots in
	// PE order: the issue order, which fixes the order of energy
	// accumulation and of the issue-phase hook calls.
	slots []dslot

	// cbox holds the decoded C-Box words of the contexts that consume or
	// recombine, in context order; cmeta[c].cbox indexes it.
	cbox []cboxWord
	// cmeta[c] is context c's header: which phases it needs and where the
	// CCU goes next. Every walk reads it instead of the CCU table.
	cmeta []ctxMeta
	// Deferred commits wait in a due-cycle ring of ringSize buckets, a
	// power of two ≥ the longest op duration, indexed by finish&ringMask.
	ringSize int
	ringMask int

	// arrays maps DMA array IDs to host array names.
	arrays   []string
	liveIns  []decHome
	liveOuts []decHome
	transfer int64
	// used lists, ascending, the registers some slot reads or writes or a
	// live-in or live-out lives in: the only registers any walk reads, so
	// all that a drawn state clears and all of a lane's slab that the lane
	// walk moves when it hands the lane to the production walk.
	used []int32

	pool sync.Pool
	// ready is a single-slot fast cache in front of pool: sync.Pool may be
	// drained by any GC, which made one-shot short runs (gcd-style) pay a
	// full state allocation per run. The slot survives GC, so after the
	// first run a sequential caller never allocates again.
	ready atomic.Pointer[runState]
}

// pend is one deferred end-of-cycle commit, the same 16 bytes on every
// walk: a register write, a squashed one, or a DMA transfer. Its ring
// bucket encodes the cycle it completes at. A plain register write has
// meta 0 on the hook-free walks; only the hooked walk queues squashed
// writes, and only it, the one walk to report a commit's PE, sets that PE
// in meta's high bits (Predecode refuses a program whose PE or array
// indices would not fit).
type pend struct {
	wOff  int32
	value int32 // ALU/resolved-load result, or the value a store writes
	index int32 // DMA array index
	meta  int32 // pe<<pendPE | array<<3 | pendSquash | pendLoad | pendDMA
}

const (
	pendDMA    = int32(1) // a DMA transfer of array meta>>3
	pendLoad   = int32(2) // the transfer is a load, else a store
	pendSquash = int32(4) // a register write predication squashed
	pendPE     = 16       // meta>>pendPE is the PE, on the hooked walk
)

// dma is the meta of the DMA transfer sl queues.
func (sl *dslot) dma() int32 {
	if sl.kind == slotLoad {
		return sl.array<<3 | pendLoad | pendDMA
	}
	return sl.array<<3 | pendDMA
}

// runState is the reusable mutable state of one run: the register slab,
// the C-Box state, the host array bindings and the due-cycle commit ring.
// A scalar run is a one-lane state. The slabs are lane-innermost at stride
// lanes: lane l's view of RF offset o is rf[o*lanes+l], of C-Box slot s
// cond[s*lanes+l], of array a hostArr[a*lanes+l]. Only the ring is
// lane-major (ring[l*ringSize+b]), since a drain walks one lane's bucket.
// The buffers keep the capacity of the most lanes they were drawn for and
// are reused across runs via the Decoded's pool.
type runState struct {
	lanes int
	rf    []int32 // slabLen × lanes: register, zero and constant rows
	// cond, what the C-Box reads, holds the cbSlots condition slots and
	// after them one status line per PE, so an operand is one index
	// whichever it names. A compare finishing at cycle c sets its line and
	// statusArrive[pe]=c, so a consume checks arrival with one lookup
	// instead of a rescan. statusArrive has one entry per PE even in a
	// batch: its lanes issue every compare in the same cycle.
	cond         []bool
	statusArrive []int64
	hostArr      [][]int32
	// ring[l*ringSize+b] holds, in issue order, lane l's commits due at
	// the one cycle ≡ b (mod ringSize) within the next ringSize cycles;
	// pendAny counts them all, so a cycle with nothing outstanding skips
	// the commit phase, and due marks the buckets some lane fills
	// (ringSize ≤ 64), so a batched cycle with nothing due is one test.
	ring    [][]pend
	pendAny int
	due     uint64
	// The lane walk's rows: each lane's latched branch select, ALU results
	// on their way to a select or the ring, and a row of false for an
	// absent outPE or C-Box operand.
	outCtrl, never []bool
	vals           []int32
}

// getState draws a run state for n lanes, replacing one with room for
// fewer, and resets it: the used registers and the zero word cleared and
// the constant words re-seeded in each lane, condition memory zeroed,
// status arrivals cleared and the commit buckets emptied. A scalar run
// (n == 1) draws from the ready slot, then the pool; a batch from the pool
// only, so the scalar state its hand-off draws while the batch holds its
// own comes from the ready slot: the pool keeps an item per P, out of
// reach of a goroutine that moved to another P during the batch.
func (d *Decoded) getState(n int) *runState {
	var rs *runState
	if n == 1 {
		rs = d.ready.Swap(nil)
	}
	if rs == nil {
		rs, _ = d.pool.Get().(*runState)
	}
	if rs == nil || cap(rs.never) < n {
		grown := n
		if rs != nil {
			grown = max(n, 2*cap(rs.never))
		}
		rs = &runState{
			rf:           make([]int32, d.slabLen()*grown),
			cond:         make([]bool, (d.cbSlots+d.numPE)*grown),
			statusArrive: make([]int64, d.numPE),
			hostArr:      make([][]int32, len(d.arrays)*grown),
			ring:         make([][]pend, d.ringSize*grown),
			outCtrl:      make([]bool, grown),
			vals:         make([]int32, grown),
			never:        make([]bool, grown),
		}
		for i := range rs.ring {
			rs.ring[i] = make([]pend, 0, d.numPE)
		}
	}
	rs.lanes = n
	rs.rf = rs.rf[:d.slabLen()*n]
	rs.cond = rs.cond[:(d.cbSlots+d.numPE)*n]
	rs.hostArr = rs.hostArr[:len(d.arrays)*n]
	rs.ring = rs.ring[:d.ringSize*n]
	rs.outCtrl, rs.vals, rs.never = rs.outCtrl[:n], rs.vals[:n], rs.never[:n]
	// No walk reads a register outside d.used, so only those and the zero
	// word need clearing in each lane, and the constant words re-seeding.
	for l := range n {
		for _, off := range d.used {
			rs.rf[int(off)*n+l] = 0
		}
		rs.rf[d.rfTotal*n+l] = 0
		for k, v := range d.consts {
			rs.rf[(d.rfTotal+1+k)*n+l] = v
		}
	}
	clear(rs.cond)
	for i := range rs.statusArrive {
		rs.statusArrive[i] = -1
	}
	// A halt or a fault can leave commits behind.
	for i := range rs.ring {
		rs.ring[i] = rs.ring[i][:0]
	}
	rs.pendAny, rs.due = 0, 0
	return rs
}

// slabLen is the length of a scalar register slab: the registers, the zero
// word and the constant words.
func (d *Decoded) slabLen() int { return d.rfTotal + 1 + len(d.consts) }

func (d *Decoded) putState(rs *runState) {
	for i := range rs.hostArr {
		rs.hostArr[i] = nil // do not pin host heaps beyond the run
	}
	if d.ready.CompareAndSwap(nil, rs) {
		return
	}
	d.pool.Put(rs)
}

// enqueue queues p to commit at the end of cycle finish in lane j's ring.
func (rs *runState) enqueue(d *Decoded, j int, finish int64, p pend) {
	b := int(finish) & d.ringMask
	rs.ring[j*d.ringSize+b] = append(rs.ring[j*d.ringSize+b], p)
	rs.due |= 1 << uint(b) // 0 beyond 64 buckets: the mask is unused then
	rs.pendAny++
}

// blockEnd checks, before the block that starts at ccnt on cycle, the
// watchdog, cancellation and the CCNT range, in that order, and returns
// the block's last context: ctxMeta.end, cut at the cycle budget and at
// the next multiple of ctxCheckInterval, so the checks fire at the cycle
// and CCNT a per-cycle walk reports.
func (d *Decoded) blockEnd(ctx context.Context, limit, cycle int64, ccnt int) (int, error) {
	switch {
	case cycle >= limit:
		return 0, &WatchdogError{Limit: limit, CCNT: ccnt}
	case cycle&(ctxCheckInterval-1) == 0 && ctx.Err() != nil:
		return 0, fmt.Errorf("sim: run cancelled at cycle %d: %w", cycle, ctx.Err())
	case ccnt < 0 || ccnt >= d.numCtx:
		return 0, fmt.Errorf("sim: CCNT %d out of range", ccnt)
	}
	last := int(d.cmeta[ccnt].end)
	if n := min(limit-cycle, ctxCheckInterval-cycle&(ctxCheckInterval-1)); int64(last-ccnt) >= n {
		last = ccnt + int(n) - 1
	}
	return last, nil
}

// Predecode compiles a program into its execution engine. It is
// conservative: any construct it cannot prove executable with pre-resolved
// state (an op its PE does not implement, a routed read without a
// matching routing output, a missing live-in/live-out home, an
// out-of-range address) is an error, and a machine running the program
// fails with it.
func Predecode(prog *ctxgen.Program) (*Decoded, error) {
	if prog == nil || prog.Comp == nil {
		return nil, fmt.Errorf("sim: predecode: incomplete program")
	}
	comp := prog.Comp
	// The program is immutable after Generate, so the array table is
	// shared, not copied.
	d := &Decoded{
		numPE:   comp.NumPEs(),
		numCtx:  prog.NumCtx,
		rfOff:   make([]int32, comp.NumPEs()),
		cbSlots: comp.CBoxSlots,
		arrays:  prog.Arrays,
	}
	off := int32(0)
	for i, pe := range comp.PEs {
		d.rfOff[i] = off
		off += int32(pe.RegfileSize)
	}
	d.rfTotal = int(off)
	if d.numPE >= 1<<(31-pendPE) || len(d.arrays) >= 1<<(pendPE-3) {
		return nil, fmt.Errorf("sim: predecode: %d PEs and %d arrays exceed a commit record's %d and %d",
			d.numPE, len(d.arrays), 1<<(31-pendPE)-1, 1<<(pendPE-3)-1)
	}
	if len(prog.PE) != d.numPE || len(prog.CBox) != d.numCtx || len(prog.CCU) != d.numCtx {
		return nil, fmt.Errorf("sim: predecode: context tables sized %d/%d/%d PEs/CBox/CCU, want %d/%d",
			len(prog.PE), len(prog.CBox), len(prog.CCU), d.numPE, d.numCtx)
	}
	// Size the slot slab and the constant words once: most (PE, context)
	// words are NOPs.
	work, nConst := 0, 0
	for pe, stream := range prog.PE {
		if len(stream) != d.numCtx {
			return nil, fmt.Errorf("sim: predecode: PE %d stream holds %d contexts, want %d",
				pe, len(stream), d.numCtx)
		}
		for c := range stream {
			if stream[c].Op != arch.NOP {
				work++
			}
			if stream[c].Op == arch.CONST {
				nConst++
			}
		}
	}
	d.slots = make([]dslot, 0, work)
	d.consts = make([]int32, 0, nConst)
	d.cmeta = make([]ctxMeta, d.numCtx)
	nCBox := 0
	for c := range prog.CBox {
		if prog.CBox[c].Consume || prog.CBox[c].Recombine {
			nCBox++
		}
	}
	d.cbox = make([]cboxWord, 0, nCBox)

	for c := 0; c < d.numCtx; c++ {
		m := &d.cmeta[c]
		m.lo = int32(len(d.slots))
		hasPred := false // some slot is predicated: latch the C-Box outPE signal
		for pe := 0; pe < d.numPE; pe++ {
			ctx := &prog.PE[pe][c]
			rfSize := comp.PEs[pe].RegfileSize
			if ctx.OutlEnable && (ctx.OutlAddr < 0 || int(ctx.OutlAddr) >= rfSize) {
				return nil, fmt.Errorf("sim: predecode: PE %d ctx %d outl addr %d out of RF", pe, c, ctx.OutlAddr)
			}
			if ctx.Op == arch.NOP {
				continue
			}
			if !comp.PEs[pe].Supports(ctx.Op) {
				return nil, fmt.Errorf("sim: predecode: PE %d ctx %d issues %v, which the PE does not implement", pe, c, ctx.Op)
			}
			sl := dslot{
				pe:          int32(pe),
				op:          ctx.Op,
				array:       ctx.Array,
				predicated:  ctx.Predicated,
				writeEnable: ctx.WriteEnable,
				wOff:        d.rfOff[pe],
				dur:         int32(comp.PEs[pe].Duration(ctx.Op)),
				energy:      comp.PEs[pe].Energy(ctx.Op),
			}
			switch {
			case ctx.Op.IsCompare():
				sl.kind = slotCompare
			case ctx.Op == arch.LOAD:
				sl.kind = slotLoad
			case ctx.Op == arch.STORE:
				sl.kind = slotStore
			default:
				sl.kind = slotALU
			}
			if (sl.kind == slotLoad || sl.kind == slotStore) &&
				(ctx.Array < 0 || int(ctx.Array) >= len(d.arrays)) {
				return nil, fmt.Errorf("sim: predecode: PE %d ctx %d names array %d of %d", pe, c, ctx.Array, len(d.arrays))
			}
			if ctx.WriteEnable || sl.kind == slotLoad {
				if ctx.WriteAddr < 0 || int(ctx.WriteAddr) >= rfSize {
					return nil, fmt.Errorf("sim: predecode: PE %d ctx %d write addr %d out of RF", pe, c, ctx.WriteAddr)
				}
				sl.wOff += ctx.WriteAddr
			}
			var err error
			sl.aMode, sl.aOff, sl.aSrc, err = d.decodeSrc(prog, pe, c, ctx.AMode, ctx.AAddr, ctx.AInput)
			if err != nil {
				return nil, err
			}
			sl.bMode, sl.bOff, sl.bSrc, err = d.decodeSrc(prog, pe, c, ctx.BMode, ctx.BAddr, ctx.BInput)
			if err != nil {
				return nil, err
			}
			if ctx.Op == arch.CONST {
				// The ALU passes CONST's immediate through as operand A,
				// read from the slot's own constant word.
				sl.aMode, sl.aOff = int8(ctxgen.SrcNone), int32(d.rfTotal+1+len(d.consts))
				d.consts = append(d.consts, ctx.Imm)
			}
			hasPred = hasPred || sl.predicated
			d.slots = append(d.slots, sl)
		}
		m.hi = int32(len(d.slots))
		cb := &prog.CBox[c]
		ccu := &prog.CCU[c]
		m.cbox = -1
		m.needCtrl = ccu.Mode == ctxgen.CCUCondJump
		m.jump = ccu.Mode == ctxgen.CCUJump
		m.halt = m.jump && ccu.Target == c
		m.next, m.target = int32(c+1), int32(ccu.Target)
		if m.jump {
			m.next = m.target
		}
		m.outPE, m.outCtrl = -1, -1
		if hasPred && cb.OutPEEnable {
			m.outPE = cb.OutPEAddr
		}
		if m.needCtrl && cb.OutCtrlEnable {
			m.outCtrl, m.ctrlInv = cb.OutCtrlAddr, cb.OutCtrlInv
		}
		cbSlots := int32(d.cbSlots)
		if cb.OutPEEnable && (cb.OutPEAddr < 0 || cb.OutPEAddr >= cbSlots) {
			return nil, fmt.Errorf("sim: predecode: ctx %d outPE slot %d out of C-Box", c, cb.OutPEAddr)
		}
		if cb.OutCtrlEnable && (cb.OutCtrlAddr < 0 || cb.OutCtrlAddr >= cbSlots) {
			return nil, fmt.Errorf("sim: predecode: ctx %d outCtrl slot %d out of C-Box", c, cb.OutCtrlAddr)
		}
		if (cb.Consume || cb.Recombine) && (cb.WriteAddr < 0 || cb.WriteAddr >= cbSlots) {
			return nil, fmt.Errorf("sim: predecode: ctx %d C-Box write slot %d out of range", c, cb.WriteAddr)
		}
		if cb.Consume && (cb.StatusPE < 0 || int(cb.StatusPE) >= d.numPE) {
			return nil, fmt.Errorf("sim: predecode: ctx %d consumes status of PE %d", c, cb.StatusPE)
		}
		if (cb.HasA && (cb.AAddr < 0 || cb.AAddr >= cbSlots)) ||
			(cb.HasB && (cb.BAddr < 0 || cb.BAddr >= cbSlots)) {
			return nil, fmt.Errorf("sim: predecode: ctx %d C-Box operand slot out of range", c)
		}
		if cb.Logic != sched.CBPass && cb.Logic != sched.CBAnd && cb.Logic != sched.CBOr {
			return nil, fmt.Errorf("sim: predecode: ctx %d C-Box logic %d undefined", c, cb.Logic)
		}
		if cb.Consume || cb.Recombine {
			m.cbox = int32(len(d.cbox))
			d.cbox = append(d.cbox, d.decodeCBox(cb))
		}
	}

	for _, name := range prog.LiveIns {
		home, ok := prog.Homes[name]
		if !ok {
			return nil, fmt.Errorf("sim: predecode: no home for live-in %q", name)
		}
		d.liveIns = append(d.liveIns, decHome{name: name, off: d.homeOff(home.PE, home.Addr)})
	}
	for _, name := range prog.LiveOuts {
		home, ok := prog.Homes[name]
		if !ok {
			return nil, fmt.Errorf("sim: predecode: no home for live-out %q", name)
		}
		d.liveOuts = append(d.liveOuts, decHome{name: name, off: d.homeOff(home.PE, home.Addr)})
	}
	for _, h := range d.liveIns {
		if h.off < 0 {
			return nil, fmt.Errorf("sim: predecode: home of %q out of RF", h.name)
		}
	}
	for _, h := range d.liveOuts {
		if h.off < 0 {
			return nil, fmt.Errorf("sim: predecode: home of %q out of RF", h.name)
		}
	}
	d.transfer = int64(2 * (len(d.liveIns) + len(d.liveOuts)))
	d.listUsed()
	for c := d.numCtx - 1; c >= 0; c-- {
		m := &d.cmeta[c]
		m.end = int32(c)
		if !m.jump && !m.needCtrl && c+1 < d.numCtx {
			m.end = d.cmeta[c+1].end
		}
	}
	d.planCommits()
	return d, nil
}

// listUsed fills d.used from a bitmap of the registers the slots and homes
// name. Absent and CONST operands read the words above the registers.
func (d *Decoded) listUsed() {
	seen := make([]uint64, (d.rfTotal+63)/64)
	mark := func(off int32) {
		if int(off) < d.rfTotal {
			seen[off>>6] |= 1 << (off & 63)
		}
	}
	for i := range d.slots {
		mark(d.slots[i].aOff)
		mark(d.slots[i].bOff)
		mark(d.slots[i].wOff)
	}
	for _, h := range d.liveIns {
		mark(h.off)
	}
	for _, h := range d.liveOuts {
		mark(h.off)
	}
	n := 0
	for _, w := range seen {
		n += bits.OnesCount64(w)
	}
	d.used = make([]int32, 0, n)
	for i, w := range seen {
		for ; w != 0; w &= w - 1 {
			d.used = append(d.used, int32(i*64+bits.TrailingZeros64(w)))
		}
	}
}

// ctxMeta is one context's header, read by every walk: which phases the
// context needs, so a step touches only live machinery (most contexts use
// one PE slot and nothing else), and where the CCU goes next.
type ctxMeta struct {
	lo, hi   int32 // slots[lo:hi] are the context's non-NOP PE slots
	next     int32 // next CCNT unless a conditional jump is taken
	target   int32 // next CCNT when a conditional jump is taken
	end      int32 // first context from here that jumps, branches, halts or is the last
	outPE    int32 // C-Box slot phase 2 latches as outPE; -1: the signal is false
	outCtrl  int32 // C-Box slot phase 2 latches as the branch select; -1: false
	cbox     int32 // the context's word in Decoded.cbox; -1: no consume or recombine
	ctrlInv  bool  // invert the branch select
	needCtrl bool  // CCU conditionally jumps: latch the branch-select signal
	jump     bool  // CCU jumps unconditionally (the hooked walk reports it)
	halt     bool  // CCU jumps to this context: the run finishes here
}

// cboxWord is a C-Box word that consumes or recombines, resolved once by
// decodeCBox into the one shape every walk evaluates (cboxWord.eval): a
// first operand, an optional second one joined by AND or OR, and the slot
// written. Operands index runState.cond.
type cboxWord struct {
	status     int32 // PE whose status a consume checks for arrival; -1: none
	a          int32 // first operand: a condition slot or a status line; -1: false
	b          int32 // second operand, a condition slot; -1: none
	write      int32 // condition slot written
	aInv, bInv bool
	or         bool // join the operands with OR, else AND
}

// decodeCBox resolves cb. A consumed status is the first operand even when
// the word also recombines; the second operand is slot A after a consumed
// status and slot B when two stored conditions recombine; a pass has none.
func (d *Decoded) decodeCBox(cb *ctxgen.CBoxCtx) cboxWord {
	w := cboxWord{status: -1, a: -1, b: -1, write: cb.WriteAddr, or: cb.Logic == sched.CBOr}
	if cb.Consume {
		w.status, w.a = cb.StatusPE, int32(d.cbSlots)+cb.StatusPE
	} else if cb.HasA {
		w.a, w.aInv = cb.AAddr, cb.AInv
	}
	switch {
	case cb.Logic == sched.CBPass:
	case cb.Consume && cb.HasA:
		w.b, w.bInv = cb.AAddr, cb.AInv
	case cb.Recombine && cb.HasB:
		w.b, w.bInv = cb.BAddr, cb.BInv
	}
	return w
}

// eval is phase 4 of w at cycle on a scalar run state rs: the condition w
// writes, and ok false when the status it consumes did not arrive this
// cycle. A second operand equal to w.or decides the join (false under AND,
// true under OR); otherwise the first operand does.
func (w *cboxWord) eval(rs *runState, cycle int64) (v, ok bool) {
	ok = w.status < 0 || rs.statusArrive[w.status] == cycle
	v = w.a >= 0 && rs.cond[w.a] != w.aInv
	if w.b >= 0 && (rs.cond[w.b] != w.bInv) == w.or {
		v = w.or
	}
	return v, ok
}

// rows is eval's join over the lanes of a batch: dst[j] is the condition w
// writes for the lane whose first operand is a[j] and second b[j]. The
// caller passes a row of false for an absent operand and checks the
// status arrival itself. dst may be a or b: each lane reads both operands
// before its write.
func (w *cboxWord) rows(dst, a, b []bool) {
	a, b = a[:len(dst)], b[:len(dst)]
	aInv, bInv := w.aInv, w.bInv
	switch {
	case w.b < 0:
		for j := range dst {
			dst[j] = a[j] != aInv
		}
	case w.or:
		for j := range dst {
			dst[j] = a[j] != aInv || b[j] != bInv
		}
	default:
		for j := range dst {
			dst[j] = a[j] != aInv && b[j] != bInv
		}
	}
}

// missingStatus is the error of a run whose context c consumes a status
// that did not arrive this cycle.
func (d *Decoded) missingStatus(c int) error {
	return fmt.Errorf("sim: ctx %d consumes missing status of PE %d", c, d.cbox[d.cmeta[c].cbox].status)
}

// planCommits derives how each walk commits writes: the due-cycle ring
// geometry, load resolvability, and per-slot direct-write eligibility (see
// dslot.direct and dslot.resolveLoad).
func (d *Decoded) planCommits() {
	maxDur := int32(1)
	storeTo := make([]bool, len(d.arrays))
	for i := range d.slots {
		sl := &d.slots[i]
		if sl.dur > maxDur {
			maxDur = sl.dur
		}
		if sl.kind == slotStore {
			storeTo[sl.array] = true
		}
	}
	for i := range d.slots {
		sl := &d.slots[i]
		if sl.kind == slotLoad && !storeTo[sl.array] {
			sl.resolveLoad = true
		}
	}
	d.ringSize = 1
	for d.ringSize < int(maxDur) {
		d.ringSize <<= 1
	}
	d.ringMask = d.ringSize - 1
	d.analyzeDirect()
}

// analyzeDirect decides, per RF-writing slot, whether a hook-free walk may
// commit the value at issue (dslot.direct) instead of through the
// end-of-cycle ring. RF offsets are per-PE disjoint, so all hazards are
// visible statically.
//
// A commit moved from cycle T+dur-1 to T is observable only if something
// touches wOff in the window (T, T+dur-1]: an operand read sees the old
// value there, or a competing write creates a commit-order inversion. A
// routed operand counts as a read of the register its source presents; a
// routing output no slot reads is never observed. The window for a
// dur-cycle op spans the next dur-1 executed contexts, a set reachable
// from the CCU tables. A multi-cycle write issued in a halting context is
// due after the last cycle and never lands, so it is never direct. A write
// elsewhere in the same context is impossible (one slot per PE per
// context), and a later slot of the same context reading wOff must see the
// pre-commit value, which is checked separately.
//
// Competing ring commits to the same offset are ruled out by requiring
// every deferred-commit writer of wOff (multi-cycle ALU or load) to pass
// the same test: then all commits to wOff happen at their issue cycles,
// and issue order equals commit order.
func (d *Decoded) analyzeDirect() {
	// touches reports whether a slot of context c reads or writes off. A
	// context holds at most one slot per PE, so a scan is as cheap as a
	// per-context set and allocates nothing.
	touches := func(c int32, off int32) bool {
		for i := d.cmeta[c].lo; i < d.cmeta[c].hi; i++ {
			sl := &d.slots[i]
			// SrcRoute carries its resolved RF offset; SrcNone and CONST
			// operands read words above the registers, which off never is.
			reads := sl.aOff == off || sl.bOff == off
			writes := sl.wOff == off && (sl.kind == slotLoad ||
				((sl.kind == slotALU || sl.kind == slotCompare) && sl.writeEnable))
			if reads || writes {
				return true
			}
		}
		return false
	}

	// windowClear reports whether no context reachable within 1..depth
	// steps of c touches off, walking the CCU successors level by level.
	// mark[s] == stamp dedupes a level; the buffers are shared by all
	// calls. Out-of-range successors are ignored: a walk stepping there
	// dies with a CCNT error before any read could happen.
	var level, nextLevel []int32
	var mark []int32
	stamp := int32(0)
	windowClear := func(c int, off int32, depth int32) bool {
		if mark == nil {
			mark = make([]int32, d.numCtx)
		}
		level = append(level[:0], int32(c))
		for step := int32(0); step < depth && len(level) > 0; step++ {
			stamp++
			nextLevel = nextLevel[:0]
			for _, n := range level {
				m := &d.cmeta[n]
				if m.halt { // terminal: no cycle ever follows
					continue
				}
				succ := [2]int32{m.next, m.target}
				nsucc := 1
				if m.needCtrl {
					nsucc = 2
				}
				for _, s := range succ[:nsucc] {
					if s < 0 || s >= int32(d.numCtx) || mark[s] == stamp {
						continue
					}
					mark[s] = stamp
					if touches(s, off) {
						return false
					}
					nextLevel = append(nextLevel, s)
				}
			}
			level, nextLevel = nextLevel, level
		}
		return true
	}

	// First mark every slot that alone could commit at issue.
	for c := 0; c < d.numCtx; c++ {
		lo, hi := d.cmeta[c].lo, d.cmeta[c].hi
		for i := lo; i < hi; i++ {
			sl := &d.slots[i]
			isWrite := (sl.kind == slotALU && sl.writeEnable) ||
				(sl.kind == slotLoad && sl.resolveLoad)
			if !isWrite {
				continue
			}
			readLater := false
			for j := i + 1; j < hi; j++ {
				// Route reads count too: a routed operand is read straight
				// from the RF (resolved offset), and it must see the
				// pre-commit value the source presented this cycle.
				nx := &d.slots[j]
				if nx.aOff == sl.wOff || nx.bOff == sl.wOff {
					readLater = true
					break
				}
			}
			if readLater {
				continue
			}
			if sl.dur > 1 && (d.cmeta[c].halt || !windowClear(c, sl.wOff, sl.dur-1)) {
				continue
			}
			sl.direct = true
		}
	}

	// An offset's writers go direct only as a set: if any deferred-commit
	// writer (multi-cycle ALU, or any load) of wOff must stay in the ring,
	// every writer of wOff stays ordered through it.
	ringBound := make([]bool, d.rfTotal)
	for i := range d.slots {
		sl := &d.slots[i]
		deferredWriter := sl.kind == slotLoad ||
			(sl.kind == slotALU && sl.writeEnable && sl.dur > 1)
		if deferredWriter && !sl.direct {
			ringBound[sl.wOff] = true
		}
	}
	for i := range d.slots {
		sl := &d.slots[i]
		if sl.direct && ringBound[sl.wOff] {
			sl.direct = false
		}
		sl.shape = slotShape(sl)
	}
}

// slotShape is the issue path a hook-free walk takes for sl, once its
// commit route is settled.
func slotShape(sl *dslot) int8 {
	switch {
	case sl.kind == slotCompare:
		return shapeCompare
	case sl.kind == slotALU && sl.writeEnable && sl.direct && sl.predicated:
		return shapePredALU
	case sl.kind == slotALU && sl.writeEnable && sl.direct:
		return shapeALU
	case sl.kind == slotLoad && sl.direct && !sl.predicated:
		return shapeLoad
	}
	return shapeOther
}

// homeOff resolves a (PE, addr) home to its flat slab offset, or -1 when
// out of range.
func (d *Decoded) homeOff(pe, addr int) int32 {
	if pe < 0 || pe >= d.numPE || addr < 0 {
		return -1
	}
	off := d.rfOff[pe] + int32(addr)
	end := int32(d.rfTotal)
	if pe+1 < d.numPE {
		end = d.rfOff[pe+1]
	}
	if off >= end {
		return -1
	}
	return off
}

// decodeSrc resolves one operand multiplexer setting at decode time. A
// routed read is checked against the source PE's routing output of the
// same context, so the walk never needs an outl-valid bit.
func (d *Decoded) decodeSrc(prog *ctxgen.Program, pe, c int, mode ctxgen.SrcMode, addr, input int32) (int8, int32, int32, error) {
	comp := prog.Comp
	switch mode {
	case ctxgen.SrcReg:
		if addr < 0 || int(addr) >= comp.PEs[pe].RegfileSize {
			return 0, 0, 0, fmt.Errorf("sim: predecode: PE %d ctx %d reads RF[%d] out of range", pe, c, addr)
		}
		return int8(ctxgen.SrcReg), d.rfOff[pe] + addr, 0, nil
	case ctxgen.SrcRoute:
		if input < 0 || int(input) >= len(comp.PEs[pe].Inputs) {
			return 0, 0, 0, fmt.Errorf("sim: predecode: PE %d ctx %d routes from input %d of %d", pe, c, input, len(comp.PEs[pe].Inputs))
		}
		src := comp.PEs[pe].Inputs[input]
		if !prog.PE[src][c].OutlEnable {
			return 0, 0, 0, fmt.Errorf("sim: predecode: PE %d reads idle outl of PE %d at ctx %d", pe, src, c)
		}
		// A routing output presents rf[OutlAddr] of the source PE at this
		// context, so the route is just an RF read under another name: the
		// offset is resolved here and every walk reads it directly.
		return int8(ctxgen.SrcRoute), d.rfOff[src] + prog.PE[src][c].OutlAddr, int32(src), nil
	default:
		return int8(ctxgen.SrcNone), int32(d.rfTotal), 0, nil
	}
}

// begin binds a run's live-ins into their home slots of rf and resolves
// its host arrays into hostArr, both at lane of slabs with the given
// stride (a scalar run passes 1 and lane 0). A nil array entry (absent or
// empty) falls back to the host interface on access for the exact fault.
func (d *Decoded) begin(rf []int32, hostArr [][]int32, stride, lane int, args map[string]int32, host *ir.Host) error {
	for _, home := range d.liveIns {
		v, ok := args[home.name]
		if !ok {
			return fmt.Errorf("sim: missing live-in %q", home.name)
		}
		rf[int(home.off)*stride+lane] = v
	}
	for i, name := range d.arrays {
		hostArr[i*stride+lane] = host.Arrays[name]
	}
	return nil
}

// result reports a run that halted after cycles cycles, its live-outs read
// at lane of rf with the given stride.
func (d *Decoded) result(rf []int32, stride, lane int, cycles int64, energy float64) *Result {
	res := &Result{
		RunCycles:      cycles,
		TransferCycles: d.transfer,
		Energy:         energy,
		LiveOuts:       make(map[string]int32, len(d.liveOuts)),
	}
	for _, home := range d.liveOuts {
		res.LiveOuts[home.name] = rf[int(home.off)*stride+lane]
	}
	return res
}

// dmaFault is the error of a DMA transfer whose index is out of its
// array's range: the host interface's fault, reproduced verbatim.
func (d *Decoded) dmaFault(host *ir.Host, array, index, value int32, load bool) error {
	var err error
	if load {
		_, err = host.Load(d.arrays[array], index)
	} else {
		err = host.Store(d.arrays[array], index, value)
	}
	return fmt.Errorf("sim: %v", err)
}

// runPlain is the production walk (see the package comment): run without
// hooks, one straight-line block of contexts per dispatch, with zero
// allocations per cycle. It binds the live-ins and walks from context 0.
func (d *Decoded) runPlain(ctx context.Context, limit int64, args map[string]int32, host *ir.Host) (*Result, error) {
	rs := d.getState(1)
	defer d.putState(rs)
	if err := d.begin(rs.rf, rs.hostArr, 1, 0, args, host); err != nil {
		return nil, err
	}
	return d.walk(ctx, limit, rs, host, 0, 0, 0)
}

// walk is the production walk's loop: it runs rs from context ccnt at
// cycle, energy being the sum so far, to the halt or the first error. A
// run starts it at 0, 0, 0; the lane walk starts it where a lane leaves
// the batch. The watchdog, cancellation and CCNT checks run once per
// block (blockEnd). Each context runs phases 2-5 in CCNT order as in run,
// energy added slot by slot, and the CCU decides after the block's last
// context.
func (d *Decoded) walk(ctx context.Context, limit int64, rs *runState, host *ir.Host, ccnt int, cycle int64, energy float64) (*Result, error) {
	rf, cond, slots, cmeta := rs.rf, rs.cond, d.slots, d.cmeta
	for {
		last, err := d.blockEnd(ctx, limit, cycle, ccnt)
		if err != nil {
			return nil, err
		}
		outCtrl := false
		for c := ccnt; c <= last; c++ {
			m := &cmeta[c]
			// Phase 2: C-Box outputs, latched before phase 4 writes
			// condition memory. Only a block's last context branches.
			outPE := m.outPE >= 0 && cond[m.outPE]
			if m.outCtrl >= 0 {
				outCtrl = cond[m.outCtrl] != m.ctrlInv
			}

			// Phase 3: issue. Operands read the slab unconditionally (zero
			// and constant words stand in for absent sources), and the slot's
			// shape picks the path: the first four test nothing further.
			for i := m.lo; i < m.hi; i++ {
				sl := &slots[i]
				energy += sl.energy
				switch sl.shape {
				case shapeALU:
					rf[sl.wOff] = arch.Eval(sl.op, rf[sl.aOff], rf[sl.bOff])
				case shapeCompare:
					cond[d.cbSlots+int(sl.pe)] = arch.Holds(sl.op, rf[sl.aOff], rf[sl.bOff])
					rs.statusArrive[sl.pe] = cycle + int64(sl.dur) - 1
				case shapePredALU:
					if outPE {
						rf[sl.wOff] = arch.Eval(sl.op, rf[sl.aOff], rf[sl.bOff])
					}
				case shapeLoad:
					// A direct load (always a resolved one) reads the host at
					// issue; an out-of-range index faults at commit.
					if a, arr := rf[sl.aOff], rs.hostArr[sl.array]; a >= 0 && int(a) < len(arr) {
						rf[sl.wOff] = arr[a]
					} else {
						rs.enqueue(d, 0, cycle+int64(sl.dur)-1, pend{wOff: sl.wOff, index: a, meta: sl.dma()})
					}
				default:
					if sl.predicated && !outPE {
						continue // squashed: nothing commits
					}
					a, b := rf[sl.aOff], rf[sl.bOff]
					finish := cycle + int64(sl.dur) - 1
					switch sl.kind {
					case slotLoad:
						if arr := rs.hostArr[sl.array]; sl.direct && a >= 0 && int(a) < len(arr) {
							rf[sl.wOff] = arr[a]
							continue
						}
						rs.enqueue(d, 0, finish, pend{wOff: sl.wOff, index: a, meta: sl.dma()})
					case slotStore:
						rs.enqueue(d, 0, finish, pend{wOff: sl.wOff, index: a, value: b, meta: sl.dma()})
					default:
						// Direct ALU writes have their own shapes.
						if sl.writeEnable {
							rs.enqueue(d, 0, finish, pend{wOff: sl.wOff, value: arch.Eval(sl.op, a, b)})
						}
					}
				}
			}

			// Phase 4: the C-Box writes condition memory. Phase 5's commits
			// touch only registers and the heap, so the write need not
			// wait for them.
			if m.cbox >= 0 {
				w := &d.cbox[m.cbox]
				v, ok := w.eval(rs, cycle)
				if !ok {
					return nil, d.missingStatus(c)
				}
				cond[w.write] = v
			}

			// Phase 5: end-of-cycle commits due this cycle, in issue order,
			// inline: a call per cycle slows ring-bound kernels (EXPERIMENTS
			// "One run state").
			if rs.pendAny > 0 {
				bkt := int(cycle) & d.ringMask
				due := rs.ring[bkt]
				for pi := range due {
					switch pw := &due[pi]; {
					case pw.meta == 0:
						rf[pw.wOff] = pw.value
					case pw.index < 0 || int(pw.index) >= len(rs.hostArr[pw.meta>>3]):
						return nil, d.dmaFault(host, pw.meta>>3, pw.index, pw.value, pw.meta&pendLoad != 0)
					case pw.meta&pendLoad != 0:
						rf[pw.wOff] = rs.hostArr[pw.meta>>3][pw.index]
					default:
						rs.hostArr[pw.meta>>3][pw.index] = pw.value
					}
				}
				rs.pendAny -= len(due)
				rs.ring[bkt] = due[:0]
			}
			cycle++
		}

		// Phase 6: next CCNT, decided by the block's last context.
		m := &cmeta[last]
		if m.halt {
			return d.result(rf, 1, 0, cycle, energy), nil
		}
		ccnt = int(m.next)
		if outCtrl {
			ccnt = int(m.target)
		}
	}
}

// run is the hooked walk, serving Probe and fault injection: it
// steps one context per cycle and calls h where each observed or corrupted
// value is produced, in issue and commit order. Every commit goes through
// the ring, squashed ones included, so events and injected write faults
// keep their commit cycle and order; its own drain emits them, naming the
// PE each entry carries in meta's high bits. Like the other walks,
// it makes the watchdog, cancellation and CCNT checks once per block.
func (d *Decoded) run(ctx context.Context, limit int64, args map[string]int32, host *ir.Host, h *hooks) (*Result, error) {
	h.inject.BeginRun()
	rs := d.getState(1)
	defer d.putState(rs)
	if err := d.begin(rs.rf, rs.hostArr, 1, 0, args, host); err != nil {
		return nil, err
	}
	rf := rs.rf
	energy := 0.0
	ccnt := 0
	var cycle int64
	for {
		last, err := d.blockEnd(ctx, limit, cycle, ccnt)
		if err != nil {
			return nil, err
		}
		for range last - ccnt + 1 { // only the last context can jump
			h.tick(cycle, ccnt)
			m := &d.cmeta[ccnt]

			// Phase 2: C-Box combinational outputs, latched before phase 4
			// writes condition memory.
			outPE := m.outPE >= 0 && rs.cond[m.outPE]
			outCtrl := m.outCtrl >= 0 && rs.cond[m.outCtrl] != m.ctrlInv

			// Phase 3: issue this context's non-NOP slots.
			for i := m.lo; i < m.hi; i++ {
				sl := &d.slots[i]
				h.issue(sl.pe, sl.op)
				a, b := rf[sl.aOff], rf[sl.bOff]
				if sl.aMode == int8(ctxgen.SrcRoute) {
					a = h.route(sl.aSrc, sl.pe, a)
				}
				if sl.bMode == int8(ctxgen.SrcRoute) {
					b = h.route(sl.bSrc, sl.pe, b)
				}
				finish := cycle + int64(sl.dur) - 1
				squash := sl.predicated && !outPE
				pe := sl.pe << pendPE
				energy += sl.energy

				switch sl.kind {
				case slotCompare:
					rs.cond[d.cbSlots+int(sl.pe)] = h.status(sl.pe, arch.Holds(sl.op, a, b))
					rs.statusArrive[sl.pe] = finish
				case slotLoad:
					if !squash {
						rs.enqueue(d, 0, finish, pend{wOff: sl.wOff, index: a, meta: pe | sl.dma()})
					}
				case slotStore:
					if !squash {
						rs.enqueue(d, 0, finish, pend{wOff: sl.wOff, index: a, value: h.alu(sl.pe, b), meta: pe | sl.dma()})
					}
				default:
					val := h.alu(sl.pe, arch.Eval(sl.op, a, b))
					if sl.writeEnable {
						p := pend{wOff: sl.wOff, value: val, meta: pe}
						if squash {
							p.meta |= pendSquash
						}
						rs.enqueue(d, 0, finish, p)
					}
				}
			}

			// Phase 4: C-Box consumes a status / recombines.
			var condVal, ok bool
			if m.cbox >= 0 {
				if condVal, ok = d.cbox[m.cbox].eval(rs, cycle); !ok {
					return nil, d.missingStatus(ccnt)
				}
			}

			// Phase 5: end-of-cycle commits due this cycle, in issue order.
			if rs.pendAny > 0 {
				bkt := int(cycle) & d.ringMask
				due := rs.ring[bkt]
				for pi := range due {
					pw := &due[pi]
					pe := pw.meta >> pendPE
					addr := int(pw.wOff - d.rfOff[pe])
					switch array, dma := pw.meta>>3&(1<<(pendPE-3)-1), pw.meta&pendDMA != 0; {
					case dma && (pw.index < 0 || int(pw.index) >= len(rs.hostArr[array])):
						return nil, d.dmaFault(host, array, pw.index, pw.value, pw.meta&pendLoad != 0)
					case dma && pw.meta&pendLoad != 0:
						v := h.alu(pe, rs.hostArr[array][pw.index])
						h.emit(EvDMALoad, int(pe), addr, v)
						rf[pw.wOff] = v
					case dma:
						rs.hostArr[array][pw.index] = pw.value
						h.emit(EvDMAStore, int(pe), int(pw.index), pw.value)
					case pw.meta&pendSquash != 0:
						h.emit(EvRFSquash, int(pe), addr, 0)
					default:
						rf[pw.wOff] = h.write(pe, addr, pw.value)
					}
				}
				rs.pendAny -= len(due)
				rs.ring[bkt] = due[:0]
			}
			if m.cbox >= 0 {
				addr := d.cbox[m.cbox].write
				rs.cond[addr] = condVal
				v := int32(0)
				if condVal {
					v = 1
				}
				h.emit(EvCondWrite, 0, int(addr), v)
			}

			// Phase 6: next CCNT.
			if m.halt {
				h.emit(EvHalt, 0, 0, 0)
				return d.result(rf, 1, 0, cycle+1, energy), nil
			}
			next := m.next
			if outCtrl {
				next = m.target
			}
			if m.jump || outCtrl {
				h.emit(EvJumpTaken, 0, 0, next)
			}
			ccnt = int(next)
			cycle++
		}
	}
}
