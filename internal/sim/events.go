package sim

// EventKind classifies observable machine events for tracing.
type EventKind int

// Machine events.
const (
	// EvRFWrite: a register-file write committed (PE, Addr, Value).
	EvRFWrite EventKind = iota
	// EvRFSquash: a predicated commit was squashed (PE, Addr).
	EvRFSquash
	// EvCondWrite: the C-Box wrote a condition slot (Addr, Value 0/1).
	EvCondWrite
	// EvJumpTaken: the CCU took a jump (Value = target).
	EvJumpTaken
	// EvDMALoad: a DMA load completed (PE, Addr, Value).
	EvDMALoad
	// EvDMAStore: a DMA store completed (Value; Addr = heap index).
	EvDMAStore
	// EvHalt: the halt context locked the CCNT.
	EvHalt
	// EvFault: an injected fault corrupted machine state (PE, Value).
	EvFault
	// EvIssue: a PE issued a non-NOP operation (PE, Value = opcode).
	EvIssue
	// EvRouteRead: a PE read a neighbour's routing output (PE = reader,
	// Addr = source PE, Value = routed word).
	EvRouteRead
	// EvCycle: a cycle began at CCNT; every cycle's first event.
	EvCycle
)

var eventNames = [...]string{
	EvRFWrite: "rf-write", EvRFSquash: "rf-squash", EvCondWrite: "cond-write",
	EvJumpTaken: "jump", EvDMALoad: "dma-load", EvDMAStore: "dma-store",
	EvHalt: "halt", EvFault: "fault", EvIssue: "issue", EvRouteRead: "route-read",
	EvCycle: "cycle",
}

func (k EventKind) String() string {
	if k < 0 || int(k) >= len(eventNames) {
		return "?"
	}
	return eventNames[k]
}

// Event is one observable state change during simulation. The Probe hook on
// Machine receives every event, each cycle's opening EvCycle first, so the
// stream alone orders a run by cycle; package trace converts it into a VCD
// waveform.
type Event struct {
	Cycle int64
	CCNT  int
	Kind  EventKind
	PE    int
	Addr  int
	Value int32
}
