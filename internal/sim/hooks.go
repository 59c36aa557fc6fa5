package sim

import (
	"cgra/internal/arch"
	"cgra/internal/fault"
)

// hooks is the instrumentation of one scalar run: the machine's Probe,
// Trace and fault plan, called by the hooked walk (Decoded.run) exactly
// where the state they observe or corrupt changes. A run without them
// takes the production walk, which has no hook sites at all.
type hooks struct {
	probe  func(Event)
	trace  func(cycle int64, ccnt int)
	inject *fault.Injector
	// phys maps logical PE indices to the physical ones faults name (nil:
	// identity, see Machine.PhysPE).
	phys []int
	// cycle and ccnt stamp every event; tick advances them.
	cycle int64
	ccnt  int
}

// hooks returns the machine's instrumentation for one run, nil when none
// is attached.
func (m *Machine) hooks() *hooks {
	if m.Probe == nil && m.Trace == nil && m.Inject == nil {
		return nil
	}
	return &hooks{probe: m.Probe, trace: m.Trace, inject: m.Inject, phys: m.PhysPE}
}

// tick starts one cycle.
func (h *hooks) tick(cycle int64, ccnt int) {
	h.cycle, h.ccnt = cycle, ccnt
	if h.trace != nil {
		h.trace(cycle, ccnt)
	}
}

func (h *hooks) emit(kind EventKind, pe, addr int, v int32) {
	if h.probe != nil {
		h.probe(Event{Cycle: h.cycle, CCNT: h.ccnt, Kind: kind, PE: pe, Addr: addr, Value: v})
	}
}

func (h *hooks) pe(pe int32) int {
	if h.phys == nil {
		return int(pe)
	}
	return h.phys[pe]
}

// issue reports a non-NOP operation issued on pe.
func (h *hooks) issue(pe int32, op arch.OpCode) { h.emit(EvIssue, int(pe), 0, int32(op)) }

// route passes the word pe reads from src's routing output.
func (h *hooks) route(src, pe int32, v int32) int32 {
	if cv, hit := h.inject.CorruptRoute(h.pe(src), h.pe(pe), h.cycle, v); hit {
		h.emit(EvFault, int(pe), 0, cv)
		v = cv
	}
	h.emit(EvRouteRead, int(pe), int(src), v)
	return v
}

// status passes the compare status pe produces.
func (h *hooks) status(pe int32, s bool) bool {
	if cs, hit := h.inject.CorruptStatus(h.pe(pe), h.cycle, s); hit {
		h.emit(EvFault, int(pe), 0, 0)
		s = cs
	}
	return s
}

// alu passes a word pe's datapath produces: an ALU result, store data or
// DMA load data.
func (h *hooks) alu(pe int32, v int32) int32 {
	if cv, hit := h.inject.CorruptALU(h.pe(pe), h.cycle, v); hit {
		h.emit(EvFault, int(pe), 0, cv)
		v = cv
	}
	return v
}

// write passes a register-file commit of v to pe's RF[addr].
func (h *hooks) write(pe int32, addr int, v int32) int32 {
	if cv, hit := h.inject.CorruptWrite(h.pe(pe), h.cycle, v); hit {
		h.emit(EvFault, int(pe), addr, cv)
		v = cv
	}
	h.emit(EvRFWrite, int(pe), addr, v)
	return v
}
