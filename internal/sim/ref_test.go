package sim

import (
	"context"
	"fmt"

	"cgra/internal/arch"
	"cgra/internal/ctxgen"
	"cgra/internal/ir"
	"cgra/internal/sched"
)

// This file keeps the instrumented interpreter that Decoded.run replaced,
// verbatim but for its dispatch preamble, as the reference the hooked walk
// is differentially tested against (export_test.go exports it as RefRun).

type pendingWrite struct {
	cycle   int64 // end of this absolute cycle
	pe      int
	addr    int
	value   int32
	squash  bool
	isDMA   bool
	dmaLoad bool
	array   string
	index   int32
}

func (m *Machine) refRun(ctx context.Context, args map[string]int32, host *ir.Host) (*Result, error) {
	prog := m.prog
	comp := prog.Comp
	limit := m.MaxCycles
	if limit == 0 {
		limit = 500_000_000
	}
	m.Inject.BeginRun()
	// phys maps a logical PE index to the physical identity faults name.
	phys := func(pe int) int {
		if m.PhysPE == nil {
			return pe
		}
		return m.PhysPE[pe]
	}

	// Register files and condition memory.
	rf := make([][]int32, comp.NumPEs())
	for i, pe := range comp.PEs {
		rf[i] = make([]int32, pe.RegfileSize)
	}
	condMem := make([]bool, comp.CBoxSlots)

	// Invocation: transfer live-ins into their home RF slots (2 cycles
	// per variable via the token network, §IV-A3).
	liveIns := prog.LiveIns
	for _, name := range liveIns {
		v, ok := args[name]
		if !ok {
			return nil, fmt.Errorf("sim: missing live-in %q", name)
		}
		home, ok := prog.Homes[name]
		if !ok {
			return nil, fmt.Errorf("sim: no home for live-in %q", name)
		}
		rf[home.PE][home.Addr] = v
	}

	// busyUntil[pe] is the absolute cycle after which the PE accepts a
	// new context (multi-cycle ops stall context decoding per PE; the
	// scheduler guarantees NOPs there, so this only guards consistency).
	res := &Result{LiveOuts: map[string]int32{}}
	var pending []pendingWrite
	// Per-PE status slots: a compare finishing at cycle c leaves its value
	// in statusVal[pe] with statusArrive[pe]=c. A PE has at most one
	// status in flight (multi-cycle ops stall its context decoding), so
	// one slot per PE replaces a pending-status list, and the C-Box
	// consume becomes a single bounded lookup.
	statusVal := make([]bool, comp.NumPEs())
	statusArrive := make([]int64, comp.NumPEs())
	for i := range statusArrive {
		statusArrive[i] = -1
	}

	ccnt := 0
	var cycle int64
	for {
		if cycle >= limit {
			return nil, &WatchdogError{Limit: limit, CCNT: ccnt}
		}
		if cycle%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: run cancelled at cycle %d: %w", cycle, err)
			}
		}
		if ccnt < 0 || ccnt >= prog.NumCtx {
			return nil, fmt.Errorf("sim: CCNT %d out of range", ccnt)
		}
		if m.Trace != nil {
			m.Trace(cycle, ccnt)
		}
		cbox := prog.CBox[ccnt]
		ccu := prog.CCU[ccnt]

		// Phase 1: routing outputs present RF values (state before
		// this cycle's writes).
		outl := make([]int32, comp.NumPEs())
		outlValid := make([]bool, comp.NumPEs())
		for pe := range comp.PEs {
			ctx := prog.PE[pe][ccnt]
			if ctx.OutlEnable {
				outl[pe] = rf[pe][ctx.OutlAddr]
				outlValid[pe] = true
			}
		}

		// Phase 2: C-Box combinational outputs from current memory.
		outPE := false
		if cbox.OutPEEnable {
			outPE = condMem[cbox.OutPEAddr]
		}
		outCtrl := false
		if cbox.OutCtrlEnable {
			outCtrl = condMem[cbox.OutCtrlAddr] != cbox.OutCtrlInv
		}

		// Phase 3: PEs issue operations.
		for pe := range comp.PEs {
			ctx := prog.PE[pe][ccnt]
			if ctx.Op == arch.NOP {
				continue
			}
			m.emit(Event{Cycle: cycle, CCNT: ccnt, Kind: EvIssue, PE: pe, Value: int32(ctx.Op)})
			fetch := func(mode ctxgen.SrcMode, addr, input int) (int32, error) {
				switch mode {
				case ctxgen.SrcReg:
					return rf[pe][addr], nil
				case ctxgen.SrcRoute:
					src := comp.PEs[pe].Inputs[input]
					if !outlValid[src] {
						return 0, fmt.Errorf("sim: PE %d reads idle outl of PE %d at ctx %d", pe, src, ccnt)
					}
					v := outl[src]
					if cv, hit := m.Inject.CorruptRoute(phys(src), phys(pe), cycle, v); hit {
						m.emit(Event{Cycle: cycle, CCNT: ccnt, Kind: EvFault, PE: pe, Value: cv})
						v = cv
					}
					m.emit(Event{Cycle: cycle, CCNT: ccnt, Kind: EvRouteRead, PE: pe, Addr: src, Value: v})
					return v, nil
				default:
					return 0, nil
				}
			}
			a, err := fetch(ctx.AMode, int(ctx.AAddr), int(ctx.AInput))
			if err != nil {
				return nil, err
			}
			b, err := fetch(ctx.BMode, int(ctx.BAddr), int(ctx.BInput))
			if err != nil {
				return nil, err
			}
			dur := comp.PEs[pe].Duration(ctx.Op)
			finish := cycle + int64(dur) - 1
			squash := ctx.Predicated && !outPE
			res.Energy += comp.PEs[pe].Energy(ctx.Op)

			switch {
			case ctx.Op.IsCompare():
				val := arch.Holds(ctx.Op, a, b)
				if cv, hit := m.Inject.CorruptStatus(phys(pe), cycle, val); hit {
					m.emit(Event{Cycle: cycle, CCNT: ccnt, Kind: EvFault, PE: pe})
					val = cv
				}
				statusVal[pe] = val
				statusArrive[pe] = finish
			case ctx.Op == arch.LOAD:
				if !squash {
					arr := prog.Arrays[ctx.Array]
					pending = append(pending, pendingWrite{
						cycle: finish, pe: pe, addr: int(ctx.WriteAddr),
						isDMA: true, dmaLoad: true, array: arr, index: a,
					})
				}
			case ctx.Op == arch.STORE:
				if !squash {
					if cv, hit := m.Inject.CorruptALU(phys(pe), cycle, b); hit {
						m.emit(Event{Cycle: cycle, CCNT: ccnt, Kind: EvFault, PE: pe, Value: cv})
						b = cv
					}
					arr := prog.Arrays[ctx.Array]
					pending = append(pending, pendingWrite{
						cycle: finish, pe: pe,
						isDMA: true, array: arr, index: a, value: b,
					})
				}
			default:
				val := arch.Eval(ctx.Op, a, b)
				if ctx.Op == arch.CONST {
					val = ctx.Imm
				}
				if cv, hit := m.Inject.CorruptALU(phys(pe), cycle, val); hit {
					m.emit(Event{Cycle: cycle, CCNT: ccnt, Kind: EvFault, PE: pe, Value: cv})
					val = cv
				}
				if ctx.WriteEnable {
					pending = append(pending, pendingWrite{
						cycle: finish, pe: pe, addr: int(ctx.WriteAddr),
						value: val, squash: squash,
					})
				}
			}
		}

		// Phase 4: C-Box consumes a status / recombines, writing at end
		// of cycle.
		var condWrite *struct {
			addr int
			val  bool
		}
		if cbox.Consume || cbox.Recombine {
			var in bool
			if cbox.Consume {
				// The status must arrive exactly this cycle.
				if statusArrive[cbox.StatusPE] != cycle {
					return nil, fmt.Errorf("sim: ctx %d consumes missing status of PE %d", ccnt, cbox.StatusPE)
				}
				in = statusVal[cbox.StatusPE]
			} else if cbox.HasA {
				in = condMem[cbox.AAddr] != cbox.AInv
			}
			out := in
			switch cbox.Logic {
			case sched.CBAnd:
				if cbox.Consume && cbox.HasA {
					out = in && (condMem[cbox.AAddr] != cbox.AInv)
				} else if cbox.Recombine && cbox.HasB {
					out = in && (condMem[cbox.BAddr] != cbox.BInv)
				}
			case sched.CBOr:
				if cbox.Consume && cbox.HasA {
					out = in || (condMem[cbox.AAddr] != cbox.AInv)
				} else if cbox.Recombine && cbox.HasB {
					out = in || (condMem[cbox.BAddr] != cbox.BInv)
				}
			}
			condWrite = &struct {
				addr int
				val  bool
			}{int(cbox.WriteAddr), out}
		}

		// Phase 5: end-of-cycle commits (RF writes, DMA completions).
		kept := pending[:0]
		for _, pw := range pending {
			if pw.cycle != cycle {
				kept = append(kept, pw)
				continue
			}
			if pw.isDMA {
				if pw.dmaLoad {
					v, err := host.Load(pw.array, pw.index)
					if err != nil {
						return nil, fmt.Errorf("sim: %v", err)
					}
					if cv, hit := m.Inject.CorruptALU(phys(pw.pe), cycle, v); hit {
						m.emit(Event{Cycle: cycle, CCNT: ccnt, Kind: EvFault, PE: pw.pe, Value: cv})
						v = cv
					}
					rf[pw.pe][pw.addr] = v
					m.emit(Event{Cycle: cycle, CCNT: ccnt, Kind: EvDMALoad, PE: pw.pe, Addr: pw.addr, Value: v})
				} else {
					if err := host.Store(pw.array, pw.index, pw.value); err != nil {
						return nil, fmt.Errorf("sim: %v", err)
					}
					m.emit(Event{Cycle: cycle, CCNT: ccnt, Kind: EvDMAStore, PE: pw.pe, Addr: int(pw.index), Value: pw.value})
				}
			} else if !pw.squash {
				if cv, hit := m.Inject.CorruptWrite(phys(pw.pe), cycle, pw.value); hit {
					m.emit(Event{Cycle: cycle, CCNT: ccnt, Kind: EvFault, PE: pw.pe, Addr: pw.addr, Value: cv})
					pw.value = cv
				}
				rf[pw.pe][pw.addr] = pw.value
				m.emit(Event{Cycle: cycle, CCNT: ccnt, Kind: EvRFWrite, PE: pw.pe, Addr: pw.addr, Value: pw.value})
			} else {
				m.emit(Event{Cycle: cycle, CCNT: ccnt, Kind: EvRFSquash, PE: pw.pe, Addr: pw.addr})
			}
		}
		pending = kept
		if condWrite != nil {
			condMem[condWrite.addr] = condWrite.val
			v := int32(0)
			if condWrite.val {
				v = 1
			}
			m.emit(Event{Cycle: cycle, CCNT: ccnt, Kind: EvCondWrite, Addr: condWrite.addr, Value: v})
		}

		// Phase 6: next CCNT.
		next := ccnt + 1
		switch ccu.Mode {
		case ctxgen.CCUJump:
			if ccu.Target == ccnt {
				// Halt context: lock and finish the run.
				m.emit(Event{Cycle: cycle, CCNT: ccnt, Kind: EvHalt})
				cycle++
				res.RunCycles = cycle
				goto done
			}
			next = ccu.Target
			m.emit(Event{Cycle: cycle, CCNT: ccnt, Kind: EvJumpTaken, Value: int32(ccu.Target)})
		case ctxgen.CCUCondJump:
			if outCtrl {
				next = ccu.Target
				m.emit(Event{Cycle: cycle, CCNT: ccnt, Kind: EvJumpTaken, Value: int32(ccu.Target)})
			}
		}
		ccnt = next
		cycle++
	}
done:
	res.TransferCycles = int64(2 * (len(liveIns) + len(prog.LiveOuts)))
	for _, name := range prog.LiveOuts {
		home, ok := prog.Homes[name]
		if !ok {
			return nil, fmt.Errorf("sim: no home for live-out %q", name)
		}
		res.LiveOuts[name] = rf[home.PE][home.Addr]
	}
	return res, nil
}

func (m *Machine) emit(ev Event) {
	if m.Probe != nil {
		m.Probe(ev)
	}
}
