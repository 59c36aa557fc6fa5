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
// in a pooled runState so concurrent runs of the same kernel reuse fixed
// buffers instead of reallocating them.
package sim

import (
	"context"
	"fmt"
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

// dslot is one predecoded non-NOP PE context slot. All addresses are
// pre-resolved: RF reads/writes are flat offsets into the run state's
// single register slab, routed reads name the source PE directly, and the
// op's duration and energy are looked up at decode time.
type dslot struct {
	pe   int32
	kind int8
	// Operand A/B: mode (SrcNone/SrcReg/SrcRoute) and flat RF offset. For
	// SrcRoute the offset is the source PE's presented register (resolved
	// at decode), which the lane engine reads directly; the scalar path
	// reads the latched outl via aSrc/bSrc instead.
	aMode, bMode int8
	aOff, bOff   int32
	aSrc, bSrc   int32
	writeEnable  bool
	predicated   bool
	// direct marks a write the lane engine may commit straight into the RF
	// during issue instead of deferring to the end-of-cycle ring. For
	// single-cycle ALU writes the condition is that no later slot of the
	// same context reads wOff and no ring-committed writer ever targets
	// wOff. For multi-cycle ALU writes and resolved loads the commit
	// normally lands dur-1 cycles after issue, so the early commit is
	// additionally proven unobservable: no context reachable within dur-1
	// cycles reads wOff (operand or routing output) or writes it (RF
	// offsets are per-PE, so every condition is checkable at decode time).
	direct bool
	// resolveLoad marks a LOAD from an array no STORE in the program ever
	// targets: the loaded value cannot change between issue and commit, so
	// the lane engine reads the host array at issue and defers only the
	// cheap register write (the RF commit still lands at the scalar cycle).
	resolveLoad bool
	wOff        int32
	op          arch.OpCode
	// imm is operand A when A names no source: CONST's immediate, 0 for
	// every other op (see arch.Eval).
	imm    int32
	array  int32
	dur    int32
	energy float64
}

// outlSlot is one predecoded routing-output capture: at this slot's
// context, PE pe presents rf[off] on its routing output.
type outlSlot struct {
	pe  int32
	off int32
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
	// rfOff[pe] is PE pe's base offset into the flat register slab of
	// rfTotal words.
	rfOff   []int32
	rfTotal int
	cbSlots int

	// slots[slotIdx[c]:slotIdx[c+1]] are context c's non-NOP PE slots in
	// PE order: the issue order, which fixes the order of energy
	// accumulation and of the issue-phase hook calls.
	slots   []dslot
	slotIdx []int32
	// outls[outlIdx[c]:outlIdx[c+1]] are context c's routing-output
	// captures.
	outls   []outlSlot
	outlIdx []int32

	cbox []ctxgen.CBoxCtx
	ccu  []ctxgen.CCUCtx

	// Batched-lane metadata (see runlanes.go): per-context phase-activity
	// flags and the due-cycle ring geometry, resolved once at decode time so
	// the lane engine can skip inactive phases without re-deriving anything
	// per cycle.
	cmeta    []ctxMeta
	ringSize int // power of two ≥ the longest op duration
	ringMask int

	// arrays maps DMA array IDs to host array names.
	arrays   []string
	liveIns  []decHome
	liveOuts []decHome
	transfer int64

	pool sync.Pool
	// ready is a single-slot fast cache in front of pool: sync.Pool may be
	// drained by any GC, which made one-shot short runs (gcd-style) pay a
	// full state allocation per run. The slot survives GC, so after the
	// first run a sequential caller never allocates again.
	ready atomic.Pointer[runState]
	// lanePool recycles the batched-run lane slabs (see runlanes.go).
	lanePool sync.Pool
}

// fpend is one pending end-of-cycle commit of the scalar walk: an RF write
// (possibly squashed) or a DMA transfer completing at the end of cycle.
type fpend struct {
	cycle   int64
	pe      int32
	wOff    int32
	value   int32
	squash  bool
	isDMA   bool
	dmaLoad bool
	array   int32
	index   int32
}

// runState is the reusable mutable state of one scalar run: the flat
// register slab, condition memory, routing-output scratch, per-PE status
// slots and the pending-commit buffer. All buffers are sized once and
// reused across runs via the Decoded's pool.
type runState struct {
	rf   []int32
	cond []bool
	outl []int32
	// statusVal/statusArrive are the bounded per-PE status slots: a
	// compare finishing at cycle c sets arrive[pe]=c, and the C-Box
	// consume checks arrival with one lookup instead of a rescan.
	statusVal    []bool
	statusArrive []int64
	pending      []fpend
	// hostArr caches the host.Arrays lookups by array ID for this run.
	hostArr [][]int32
}

// getState draws a reset runState from the ready slot or the pool.
func (d *Decoded) getState() *runState {
	rs := d.ready.Swap(nil)
	if rs == nil {
		rs, _ = d.pool.Get().(*runState)
	}
	if rs == nil {
		rs = &runState{
			rf:           make([]int32, d.rfTotal),
			cond:         make([]bool, d.cbSlots),
			outl:         make([]int32, d.numPE),
			statusVal:    make([]bool, d.numPE),
			statusArrive: make([]int64, d.numPE),
			pending:      make([]fpend, 0, 2*d.numPE+4),
			hostArr:      make([][]int32, len(d.arrays)),
		}
	}
	clear(rs.rf)
	clear(rs.cond)
	for i := range rs.statusArrive {
		rs.statusArrive[i] = -1
	}
	rs.pending = rs.pending[:0]
	return rs
}

func (d *Decoded) putState(rs *runState) {
	for i := range rs.hostArr {
		rs.hostArr[i] = nil // do not pin host heaps beyond the run
	}
	if d.ready.CompareAndSwap(nil, rs) {
		return
	}
	d.pool.Put(rs)
}

// Predecode compiles a program into its execution engine. It is
// conservative: any construct it cannot prove executable with pre-resolved
// state (an op its PE does not implement, a routed read without a
// matching routing output, a missing live-in/live-out home, an
// out-of-range address) is an error, and a machine running the program
// fails with it.
func Predecode(prog *ctxgen.Program) (*Decoded, error) {
	if prog == nil || prog.Sched == nil || prog.Sched.Comp == nil || prog.Sched.Graph == nil {
		return nil, fmt.Errorf("sim: predecode: incomplete program")
	}
	s := prog.Sched
	comp := s.Comp
	g := s.Graph
	d := &Decoded{
		numPE:   comp.NumPEs(),
		numCtx:  prog.NumCtx,
		rfOff:   make([]int32, comp.NumPEs()),
		cbSlots: comp.CBoxSlots,
		slotIdx: make([]int32, prog.NumCtx+1),
		outlIdx: make([]int32, prog.NumCtx+1),
		cbox:    append([]ctxgen.CBoxCtx(nil), prog.CBox...),
		ccu:     append([]ctxgen.CCUCtx(nil), prog.CCU...),
		arrays:  append([]string(nil), g.Arrays...),
	}
	off := int32(0)
	for i, pe := range comp.PEs {
		d.rfOff[i] = off
		off += int32(pe.RegfileSize)
	}
	d.rfTotal = int(off)
	if len(prog.PE) != d.numPE || len(prog.CBox) != d.numCtx || len(prog.CCU) != d.numCtx {
		return nil, fmt.Errorf("sim: predecode: context tables sized %d/%d/%d PEs/CBox/CCU, want %d/%d",
			len(prog.PE), len(prog.CBox), len(prog.CCU), d.numPE, d.numCtx)
	}

	for c := 0; c < d.numCtx; c++ {
		d.slotIdx[c] = int32(len(d.slots))
		d.outlIdx[c] = int32(len(d.outls))
		for pe := 0; pe < d.numPE; pe++ {
			ctx := &prog.PE[pe][c]
			if len(prog.PE[pe]) != d.numCtx {
				return nil, fmt.Errorf("sim: predecode: PE %d stream holds %d contexts, want %d",
					pe, len(prog.PE[pe]), d.numCtx)
			}
			if ctx.OutlEnable {
				if ctx.OutlAddr < 0 || ctx.OutlAddr >= comp.PEs[pe].RegfileSize {
					return nil, fmt.Errorf("sim: predecode: PE %d ctx %d outl addr %d out of RF", pe, c, ctx.OutlAddr)
				}
				d.outls = append(d.outls, outlSlot{pe: int32(pe), off: d.rfOff[pe] + int32(ctx.OutlAddr)})
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
				array:       int32(ctx.Array),
				predicated:  ctx.Predicated,
				writeEnable: ctx.WriteEnable,
				wOff:        d.rfOff[pe] + int32(ctx.WriteAddr),
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
				(ctx.Array < 0 || ctx.Array >= len(d.arrays)) {
				return nil, fmt.Errorf("sim: predecode: PE %d ctx %d names array %d of %d", pe, c, ctx.Array, len(d.arrays))
			}
			if ctx.WriteEnable || sl.kind == slotLoad {
				if ctx.WriteAddr < 0 || ctx.WriteAddr >= comp.PEs[pe].RegfileSize {
					return nil, fmt.Errorf("sim: predecode: PE %d ctx %d write addr %d out of RF", pe, c, ctx.WriteAddr)
				}
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
				// The ALU passes CONST's immediate through as operand A.
				sl.aMode, sl.imm = int8(ctxgen.SrcNone), ctx.Imm
			}
			d.slots = append(d.slots, sl)
		}
		cb := &d.cbox[c]
		if cb.OutPEEnable && (cb.OutPEAddr < 0 || cb.OutPEAddr >= d.cbSlots) {
			return nil, fmt.Errorf("sim: predecode: ctx %d outPE slot %d out of C-Box", c, cb.OutPEAddr)
		}
		if cb.OutCtrlEnable && (cb.OutCtrlAddr < 0 || cb.OutCtrlAddr >= d.cbSlots) {
			return nil, fmt.Errorf("sim: predecode: ctx %d outCtrl slot %d out of C-Box", c, cb.OutCtrlAddr)
		}
		if (cb.Consume || cb.Recombine) && (cb.WriteAddr < 0 || cb.WriteAddr >= d.cbSlots) {
			return nil, fmt.Errorf("sim: predecode: ctx %d C-Box write slot %d out of range", c, cb.WriteAddr)
		}
		if cb.Consume && (cb.StatusPE < 0 || cb.StatusPE >= d.numPE) {
			return nil, fmt.Errorf("sim: predecode: ctx %d consumes status of PE %d", c, cb.StatusPE)
		}
		if (cb.HasA && (cb.AAddr < 0 || cb.AAddr >= d.cbSlots)) ||
			(cb.HasB && (cb.BAddr < 0 || cb.BAddr >= d.cbSlots)) {
			return nil, fmt.Errorf("sim: predecode: ctx %d C-Box operand slot out of range", c)
		}
	}
	d.slotIdx[d.numCtx] = int32(len(d.slots))
	d.outlIdx[d.numCtx] = int32(len(d.outls))

	for _, name := range g.LiveIns() {
		home := s.Homes[name]
		if home == nil {
			return nil, fmt.Errorf("sim: predecode: no home for live-in %q", name)
		}
		d.liveIns = append(d.liveIns, decHome{name: name, off: d.homeOff(home.PE, home.Addr)})
	}
	for _, name := range g.LiveOuts() {
		home := s.Homes[name]
		if home == nil {
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
	d.finalizeLaneMeta()
	return d, nil
}

// ctxMeta is the lane engine's per-context phase-activity summary: which
// per-lane phases context c actually needs, so a batched step touches only
// live machinery (most contexts use one PE slot and nothing else).
type ctxMeta struct {
	hasPred  bool  // some slot is predicated: latch the C-Box outPE signal
	needCtrl bool  // CCU conditionally jumps: latch the branch-select signal
	needCBox bool  // C-Box consumes or recombines this context
	halt     bool  // CCUJump to itself: lanes reaching this context finish
	next     int32 // next CCNT when the CCU is unconditional
}

// finalizeLaneMeta derives the batched-lane metadata: per-context activity
// flags, the pending-commit ring geometry, load resolvability, and
// per-slot direct-write eligibility (see dslot.direct and
// dslot.resolveLoad).
func (d *Decoded) finalizeLaneMeta() {
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

	d.cmeta = make([]ctxMeta, d.numCtx)
	for c := 0; c < d.numCtx; c++ {
		m := &d.cmeta[c]
		cb := &d.cbox[c]
		ccu := &d.ccu[c]
		m.needCBox = cb.Consume || cb.Recombine
		m.needCtrl = ccu.Mode == ctxgen.CCUCondJump
		m.halt = ccu.Mode == ctxgen.CCUJump && ccu.Target == c
		m.next = int32(c + 1)
		if ccu.Mode == ctxgen.CCUJump {
			m.next = int32(ccu.Target)
		}
		for i := d.slotIdx[c]; i < d.slotIdx[c+1]; i++ {
			if d.slots[i].predicated {
				m.hasPred = true
			}
		}
	}
	d.analyzeDirect()
}

// analyzeDirect decides, per RF-writing slot, whether the lane engine may
// commit the value at issue (dslot.direct) instead of through the
// end-of-cycle ring. RF offsets are per-PE disjoint, so all hazards are
// visible statically.
//
// A commit moved from cycle T+dur-1 to T is observable only if something
// touches wOff in the window (T, T+dur-1]: an operand read or routing
// output presents the old value there, or a competing write creates a
// commit-order inversion. The window for a dur-cycle op spans the next
// dur-1 executed contexts, a set reachable from the CCU tables. A write
// elsewhere in the same context is impossible (one slot per PE per
// context), and a later slot of the same context reading wOff via SrcReg
// must see the pre-commit value, which is checked separately.
//
// Competing ring commits to the same offset are ruled out by requiring
// every deferred-commit writer of wOff (multi-cycle ALU or load) to pass
// the same test: then all commits to wOff happen at their issue cycles in
// both engines, and issue order equals scalar commit order.
func (d *Decoded) analyzeDirect() {
	// Per-context offset touch sets for the window test.
	readAt := make([]map[int32]bool, d.numCtx)
	writeAt := make([]map[int32]bool, d.numCtx)
	succ := make([][]int32, d.numCtx)
	for c := 0; c < d.numCtx; c++ {
		r := map[int32]bool{}
		w := map[int32]bool{}
		for i := d.slotIdx[c]; i < d.slotIdx[c+1]; i++ {
			sl := &d.slots[i]
			if sl.aMode != int8(ctxgen.SrcNone) {
				r[sl.aOff] = true // SrcRoute carries its resolved RF offset
			}
			if sl.bMode != int8(ctxgen.SrcNone) {
				r[sl.bOff] = true
			}
			if sl.kind == slotLoad || ((sl.kind == slotALU || sl.kind == slotCompare) && sl.writeEnable) {
				w[sl.wOff] = true
			}
		}
		for _, o := range d.outls[d.outlIdx[c]:d.outlIdx[c+1]] {
			r[o.off] = true // a routing output is an RF read
		}
		readAt[c], writeAt[c] = r, w
		m := &d.cmeta[c]
		switch {
		case m.halt: // terminal: no cycle ever follows
		case m.needCtrl:
			succ[c] = []int32{int32(c + 1), int32(d.ccu[c].Target)}
		default:
			succ[c] = []int32{m.next}
		}
	}

	// windowClear reports whether no context reachable within 1..depth
	// steps of c touches off. Out-of-range successors are ignored: a lane
	// stepping there dies with a CCNT error before any read could happen.
	windowClear := func(c int, off int32, depth int32) bool {
		type node struct {
			c int32
			d int32
		}
		frontier := []node{{int32(c), 0}}
		seen := map[node]bool{}
		for len(frontier) > 0 {
			n := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			if n.d >= depth {
				continue
			}
			for _, s := range succ[n.c] {
				if s < 0 || s >= int32(d.numCtx) {
					continue
				}
				nx := node{s, n.d + 1}
				if seen[nx] {
					continue
				}
				seen[nx] = true
				if readAt[s][off] || writeAt[s][off] {
					return false
				}
				frontier = append(frontier, nx)
			}
		}
		return true
	}

	// eligible: this slot alone could commit at issue.
	eligible := make([]bool, len(d.slots))
	for c := 0; c < d.numCtx; c++ {
		lo, hi := d.slotIdx[c], d.slotIdx[c+1]
		for i := lo; i < hi; i++ {
			sl := &d.slots[i]
			isWrite := (sl.kind == slotALU && sl.writeEnable) ||
				(sl.kind == slotLoad && sl.resolveLoad)
			if !isWrite {
				continue
			}
			readLater := false
			for j := i + 1; j < hi; j++ {
				// Route reads count too: the lane engine reads a routed
				// operand straight from the RF (resolved offset), and it
				// must see the pre-commit value like the latched outl does.
				nx := &d.slots[j]
				if (nx.aMode != int8(ctxgen.SrcNone) && nx.aOff == sl.wOff) ||
					(nx.bMode != int8(ctxgen.SrcNone) && nx.bOff == sl.wOff) {
					readLater = true
					break
				}
			}
			if readLater {
				continue
			}
			if sl.dur > 1 && !windowClear(c, sl.wOff, sl.dur-1) {
				continue
			}
			eligible[i] = true
		}
	}

	// An offset's writers go direct only as a set: if any deferred-commit
	// writer (multi-cycle ALU, or any load) of wOff must stay in the ring,
	// every writer of wOff stays ordered through it.
	ringBound := map[int32]bool{}
	for i := range d.slots {
		sl := &d.slots[i]
		deferredWriter := sl.kind == slotLoad ||
			(sl.kind == slotALU && sl.writeEnable && sl.dur > 1)
		if deferredWriter && !eligible[i] {
			ringBound[sl.wOff] = true
		}
	}
	for i := range d.slots {
		sl := &d.slots[i]
		if eligible[i] && !ringBound[sl.wOff] {
			sl.direct = true
		}
	}
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
func (d *Decoded) decodeSrc(prog *ctxgen.Program, pe, c int, mode ctxgen.SrcMode, addr, input int) (int8, int32, int32, error) {
	comp := prog.Sched.Comp
	switch mode {
	case ctxgen.SrcReg:
		if addr < 0 || addr >= comp.PEs[pe].RegfileSize {
			return 0, 0, 0, fmt.Errorf("sim: predecode: PE %d ctx %d reads RF[%d] out of range", pe, c, addr)
		}
		return int8(ctxgen.SrcReg), d.rfOff[pe] + int32(addr), 0, nil
	case ctxgen.SrcRoute:
		if input < 0 || input >= len(comp.PEs[pe].Inputs) {
			return 0, 0, 0, fmt.Errorf("sim: predecode: PE %d ctx %d routes from input %d of %d", pe, c, input, len(comp.PEs[pe].Inputs))
		}
		src := comp.PEs[pe].Inputs[input]
		if !prog.PE[src][c].OutlEnable {
			return 0, 0, 0, fmt.Errorf("sim: predecode: PE %d reads idle outl of PE %d at ctx %d", pe, src, c)
		}
		// A routing output presents rf[OutlAddr] of the source PE at this
		// context, so the route is just an RF read under another name: the
		// offset is resolved here and the lane engine reads it directly
		// (the scalar path keeps the latched outl via aSrc/bSrc).
		return int8(ctxgen.SrcRoute), d.rfOff[src] + int32(prog.PE[src][c].OutlAddr), int32(src), nil
	default:
		return int8(ctxgen.SrcNone), 0, 0, nil
	}
}

// NumCtx returns the number of contexts of the decoded program.
func (d *Decoded) NumCtx() int { return d.numCtx }

// Slots returns the total number of predecoded non-NOP PE slots.
func (d *Decoded) Slots() int { return len(d.slots) }

// run executes the decoded program with zero allocations per cycle. It is
// the one scalar walk: h carries the machine's Probe, Trace and fault plan
// (nil on the production path), called where each observed or corrupted
// value is produced, in issue and commit order.
func (d *Decoded) run(ctx context.Context, limit int64, args map[string]int32, host *ir.Host, h *hooks) (*Result, error) {
	if h != nil {
		h.inject.BeginRun()
	}
	rs := d.getState()
	defer d.putState(rs)

	// Invocation: live-ins into their home slots.
	for _, home := range d.liveIns {
		v, ok := args[home.name]
		if !ok {
			return nil, fmt.Errorf("sim: missing live-in %q", home.name)
		}
		rs.rf[home.off] = v
	}
	// Resolve the host arrays once; a nil entry (absent or empty array)
	// falls back to the host interface on access for the exact fault.
	for i, name := range d.arrays {
		rs.hostArr[i] = host.Arrays[name]
	}

	res := &Result{LiveOuts: make(map[string]int32, len(d.liveOuts))}
	energy := 0.0
	ccnt := 0
	var cycle int64
	for {
		if cycle >= limit {
			return nil, &WatchdogError{Limit: limit, CCNT: ccnt}
		}
		if cycle&(ctxCheckInterval-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: run cancelled at cycle %d: %w", cycle, err)
			}
		}
		if ccnt < 0 || ccnt >= d.numCtx {
			return nil, fmt.Errorf("sim: CCNT %d out of range", ccnt)
		}
		if h != nil {
			h.tick(cycle, ccnt)
		}
		cb := &d.cbox[ccnt]
		ccu := &d.ccu[ccnt]

		// Phase 1: routing outputs present RF values (pre-commit state).
		for _, o := range d.outls[d.outlIdx[ccnt]:d.outlIdx[ccnt+1]] {
			rs.outl[o.pe] = rs.rf[o.off]
		}

		// Phase 2: C-Box combinational outputs.
		outPE := cb.OutPEEnable && rs.cond[cb.OutPEAddr]
		outCtrl := false
		if cb.OutCtrlEnable {
			outCtrl = rs.cond[cb.OutCtrlAddr] != cb.OutCtrlInv
		}

		// Phase 3: issue this context's non-NOP slots.
		for i := d.slotIdx[ccnt]; i < d.slotIdx[ccnt+1]; i++ {
			sl := &d.slots[i]
			if h != nil {
				h.issue(sl.pe, sl.op)
			}
			a, b := sl.imm, int32(0)
			switch sl.aMode {
			case int8(ctxgen.SrcReg):
				a = rs.rf[sl.aOff]
			case int8(ctxgen.SrcRoute):
				a = rs.outl[sl.aSrc]
				if h != nil {
					a = h.route(sl.aSrc, sl.pe, a)
				}
			}
			switch sl.bMode {
			case int8(ctxgen.SrcReg):
				b = rs.rf[sl.bOff]
			case int8(ctxgen.SrcRoute):
				b = rs.outl[sl.bSrc]
				if h != nil {
					b = h.route(sl.bSrc, sl.pe, b)
				}
			}
			finish := cycle + int64(sl.dur) - 1
			squash := sl.predicated && !outPE
			energy += sl.energy

			switch sl.kind {
			case slotCompare:
				val := arch.Holds(sl.op, a, b)
				if h != nil {
					val = h.status(sl.pe, val)
				}
				rs.statusVal[sl.pe] = val
				rs.statusArrive[sl.pe] = finish
			case slotLoad:
				if !squash {
					rs.pending = append(rs.pending, fpend{
						cycle: finish, pe: sl.pe, wOff: sl.wOff,
						isDMA: true, dmaLoad: true, array: sl.array, index: a,
					})
				}
			case slotStore:
				if !squash {
					if h != nil {
						b = h.alu(sl.pe, b)
					}
					rs.pending = append(rs.pending, fpend{
						cycle: finish, pe: sl.pe,
						isDMA: true, array: sl.array, index: a, value: b,
					})
				}
			default:
				val := arch.Eval(sl.op, a, b)
				if h != nil {
					val = h.alu(sl.pe, val)
				}
				if sl.writeEnable {
					rs.pending = append(rs.pending, fpend{
						cycle: finish, pe: sl.pe, wOff: sl.wOff,
						value: val, squash: squash,
					})
				}
			}
		}

		// Phase 4: C-Box consumes a status / recombines.
		condAddr, condVal, condWrite := 0, false, false
		if cb.Consume || cb.Recombine {
			var in bool
			if cb.Consume {
				if rs.statusArrive[cb.StatusPE] != cycle {
					return nil, fmt.Errorf("sim: ctx %d consumes missing status of PE %d", ccnt, cb.StatusPE)
				}
				in = rs.statusVal[cb.StatusPE]
			} else if cb.HasA {
				in = rs.cond[cb.AAddr] != cb.AInv
			}
			out := in
			switch cb.Logic {
			case sched.CBAnd:
				if cb.Consume && cb.HasA {
					out = in && (rs.cond[cb.AAddr] != cb.AInv)
				} else if cb.Recombine && cb.HasB {
					out = in && (rs.cond[cb.BAddr] != cb.BInv)
				}
			case sched.CBOr:
				if cb.Consume && cb.HasA {
					out = in || (rs.cond[cb.AAddr] != cb.AInv)
				} else if cb.Recombine && cb.HasB {
					out = in || (rs.cond[cb.BAddr] != cb.BInv)
				}
			}
			condAddr, condVal, condWrite = cb.WriteAddr, out, true
		}

		// Phase 5: end-of-cycle commits.
		kept := rs.pending[:0]
		for pi := range rs.pending {
			pw := rs.pending[pi]
			if pw.cycle != cycle {
				kept = append(kept, pw)
				continue
			}
			if pw.isDMA {
				arr := rs.hostArr[pw.array]
				if pw.index < 0 || int(pw.index) >= len(arr) {
					// Reproduce the host interface's fault verbatim.
					var err error
					if pw.dmaLoad {
						_, err = host.Load(d.arrays[pw.array], pw.index)
					} else {
						err = host.Store(d.arrays[pw.array], pw.index, pw.value)
					}
					return nil, fmt.Errorf("sim: %v", err)
				}
				if pw.dmaLoad {
					v := arr[pw.index]
					if h != nil {
						v = h.alu(pw.pe, v)
						h.emit(EvDMALoad, int(pw.pe), int(pw.wOff-d.rfOff[pw.pe]), v)
					}
					rs.rf[pw.wOff] = v
				} else {
					arr[pw.index] = pw.value
					if h != nil {
						h.emit(EvDMAStore, int(pw.pe), int(pw.index), pw.value)
					}
				}
			} else if !pw.squash {
				if h != nil {
					pw.value = h.write(pw.pe, int(pw.wOff-d.rfOff[pw.pe]), pw.value)
				}
				rs.rf[pw.wOff] = pw.value
			} else if h != nil {
				h.emit(EvRFSquash, int(pw.pe), int(pw.wOff-d.rfOff[pw.pe]), 0)
			}
		}
		rs.pending = kept
		if condWrite {
			rs.cond[condAddr] = condVal
			if h != nil {
				v := int32(0)
				if condVal {
					v = 1
				}
				h.emit(EvCondWrite, 0, condAddr, v)
			}
		}

		// Phase 6: next CCNT.
		next := ccnt + 1
		switch ccu.Mode {
		case ctxgen.CCUJump:
			if ccu.Target == ccnt {
				if h != nil {
					h.emit(EvHalt, 0, 0, 0)
				}
				cycle++
				res.RunCycles = cycle
				res.Energy = energy
				res.TransferCycles = d.transfer
				for _, home := range d.liveOuts {
					res.LiveOuts[home.name] = rs.rf[home.off]
				}
				return res, nil
			}
			next = ccu.Target
			if h != nil {
				h.emit(EvJumpTaken, 0, 0, int32(next))
			}
		case ctxgen.CCUCondJump:
			if outCtrl {
				next = ccu.Target
				if h != nil {
					h.emit(EvJumpTaken, 0, 0, int32(next))
				}
			}
		}
		ccnt = next
		cycle++
	}
}
