// Package sched implements the paper's scheduler (§V): a resource- and
// routing-aware list scheduler that maps a CDFG with nested loops and
// data-dependent control flow onto an inhomogeneous, irregular CGRA
// composition.
//
// Key mechanisms, following Algorithm 1 of the paper:
//
//   - time-stepped list scheduling with the longest-path weight as priority,
//   - loop handling via contiguous context ranges and conditional CCNT
//     jumps (check-loop-compatibility becomes a structural barrier),
//   - speculation + predication: both arms of dataflow conditionals execute,
//     only predicated writes (pWRITE) commit,
//   - fusing: reads are always fused into consumers; pWRITEs fuse into their
//     producer when it lands on the variable's home PE and no control
//     dependency inhibits it,
//   - an attraction criterion orders candidate PEs; ties break toward
//     better-connected PEs,
//   - data locality and routing constraints are resolved by copying values
//     along Floyd shortest paths, into earlier free time steps when possible,
//   - the C-Box is treated as a resource: one incoming status per cycle, one
//     predication read per cycle, one branch-selection read per cycle.
package sched

import (
	"fmt"

	"cgra/internal/arch"
	"cgra/internal/cdfg"
	"cgra/internal/obs"
)

// SrcKind distinguishes operand fetch paths inside a PE.
type SrcKind int

// Operand sources.
const (
	// SrcNone marks an unused operand port.
	SrcNone SrcKind = iota
	// SrcReg reads the PE's own register file.
	SrcReg
	// SrcRoute reads a neighbouring PE's routing output (outl), which in
	// turn reads that PE's register file.
	SrcRoute
)

// Src describes where one operand of a scheduled operation comes from.
type Src struct {
	Kind SrcKind
	// Val is the value being read (its Addr names the RF entry after
	// allocation). For SrcRoute the value lives on FromPE's RF.
	Val *Value
	// FromPE is the neighbour whose outl is read (SrcRoute only).
	FromPE int
}

func (s Src) String() string {
	switch s.Kind {
	case SrcNone:
		return "-"
	case SrcReg:
		return fmt.Sprintf("r%d", s.Val.ID)
	case SrcRoute:
		return fmt.Sprintf("pe%d:r%d", s.FromPE, s.Val.ID)
	}
	return "?"
}

// Value is one register-file resident value: a node result, a local
// variable's home slot, a copy, or a materialized constant. The allocator
// assigns each value a physical RF address on its PE.
type Value struct {
	ID int
	PE int
	// Def is the cycle at the end of which the value is written; it is
	// readable from Def+1 on. Live-in home slots use Def = -1.
	Def int
	// Uses are the cycles at which the value is read.
	Uses []int
	// Local names the variable for home slots and local copies.
	Local string
	// IsHome marks the authoritative home slot of Local.
	IsHome bool
	// Pinned values live for the whole run (home slots, constants).
	Pinned bool
	// Addr is the physical RF entry, set by the allocator (-1 before).
	Addr int
}

// Op is one scheduled PE operation (one context entry of one PE).
type Op struct {
	PE    int
	Cycle int
	// Dur is the latency; the PE is busy for cycles [Cycle, Cycle+Dur-1]
	// and Dest is readable from Cycle+Dur on.
	Dur  int
	Code arch.OpCode
	A, B Src
	// Dest is the value written to the PE's RF (nil for STORE, compares
	// and pure NOPs).
	Dest *Value
	// PredSlot, when non-nil, gates the commit (RF write or DMA access)
	// with the C-Box predication output (outPE).
	PredSlot *Slot
	// InvertPred inverts the predication signal.
	InvertPred bool
	// Imm is the CONST immediate.
	Imm int32
	// Array is the DMA array index.
	Array int
	// Node is the CDFG node this op realizes (nil for copies and constant
	// materializations inserted by the scheduler).
	Node *cdfg.Node
}

func (o *Op) String() string {
	s := fmt.Sprintf("c%-4d pe%-2d %-6v", o.Cycle, o.PE, o.Code)
	if o.Code == arch.CONST {
		s += fmt.Sprintf(" #%d", o.Imm)
	}
	if o.A.Kind != SrcNone {
		s += " " + o.A.String()
	}
	if o.B.Kind != SrcNone {
		s += " " + o.B.String()
	}
	if o.Dest != nil {
		s += fmt.Sprintf(" -> r%d", o.Dest.ID)
		if o.Dest.Local != "" {
			s += "(" + o.Dest.Local + ")"
		}
	}
	if o.PredSlot != nil {
		s += fmt.Sprintf(" @s%d", o.PredSlot.ID)
		if o.InvertPred {
			s += "!"
		}
	}
	return s
}

// Slot is a virtual C-Box condition-memory slot. The allocator maps virtual
// slots to the physical condition memory with the left-edge algorithm.
type Slot struct {
	ID int
	// Writes and Uses record the cycles of accesses, for allocation.
	Writes []int
	Uses   []int
	// Phys is the physical slot index, set by the allocator (-1 before).
	Phys int
}

// CBoxOpKind distinguishes C-Box micro-operations.
type CBoxOpKind int

// C-Box micro-operation kinds.
const (
	// CBConsume takes the status bit arriving from a compare operation
	// this cycle and combines it with at most one stored condition
	// (§IV-A2: one incoming status per cycle).
	CBConsume CBoxOpKind = iota
	// CBRecombine combines two stored conditions (used to join condition
	// sub-trees and to conjoin nested predicates, Fig. 4's second read
	// ports).
	CBRecombine
)

// CBLogic selects the combination function.
type CBLogic int

// C-Box logic functions.
const (
	CBPass CBLogic = iota // result = first operand (status or stored A)
	CBAnd
	CBOr
)

// CBoxOp is one C-Box context entry.
type CBoxOp struct {
	Cycle int
	Kind  CBoxOpKind
	// StatusPE is the PE whose status bit is consumed (CBConsume).
	StatusPE int
	Logic    CBLogic
	// A is the stored operand (nil for a pure pass of the status).
	A    *Slot
	InvA bool
	// B is the second stored operand (CBRecombine with CBAnd/CBOr; for
	// CBPass recombines, A alone is used).
	B    *Slot
	InvB bool
	// Write is the slot receiving the result (readable next cycle).
	Write *Slot
}

func (c *CBoxOp) String() string {
	s := fmt.Sprintf("c%-4d cbox ", c.Cycle)
	if c.Kind == CBConsume {
		s += fmt.Sprintf("status(pe%d)", c.StatusPE)
	} else {
		s += fmt.Sprintf("s%d", c.A.ID)
		if c.InvA {
			s += "!"
		}
	}
	switch c.Logic {
	case CBAnd:
		s += " & "
	case CBOr:
		s += " | "
	case CBPass:
		s += " pass "
	}
	if c.Kind == CBConsume && c.A != nil {
		s += fmt.Sprintf("s%d", c.A.ID)
		if c.InvA {
			s += "!"
		}
	}
	if c.Kind == CBRecombine && c.B != nil {
		s += fmt.Sprintf("s%d", c.B.ID)
		if c.InvB {
			s += "!"
		}
	}
	s += fmt.Sprintf(" -> s%d", c.Write.ID)
	return s
}

// CCUOp is a context-counter manipulation: an (un)conditional jump attached
// to one cycle. In cycles without a CCUOp the CCNT increments.
type CCUOp struct {
	Cycle  int
	Uncond bool
	Target int
	// Slot drives the branch selection (outctrl) for conditional jumps;
	// the jump is taken when the slot value XOR Invert is true.
	Slot   *Slot
	Invert bool
}

func (c *CCUOp) String() string {
	if c.Uncond {
		return fmt.Sprintf("c%-4d ccu jump %d", c.Cycle, c.Target)
	}
	inv := ""
	if c.Invert {
		inv = "!"
	}
	return fmt.Sprintf("c%-4d ccu if %ss%d jump %d", c.Cycle, inv, c.Slot.ID, c.Target)
}

// Schedule is the complete mapping of one kernel onto one composition.
type Schedule struct {
	Comp  *arch.Composition
	Graph *cdfg.Graph
	// Length is the number of contexts used, including the final halt
	// context (the paper's "used contexts", Table I).
	Length int
	// Ops holds every scheduled PE operation, ordered by (Cycle, PE).
	Ops []*Op
	// CBox holds the C-Box program, ordered by cycle (≤ 1 per cycle).
	CBox []*CBoxOp
	// CCU maps cycles to jumps (≤ 1 per cycle).
	CCU map[int]*CCUOp
	// Values lists every RF-resident value.
	Values []*Value
	// Slots lists every virtual C-Box slot.
	Slots []*Slot
	// Homes maps each local to its home slot value.
	Homes map[string]*Value
	// LoopRanges records each loop's [headerStart, backJumpCycle] context
	// range, innermost first, for lifetime extension.
	LoopRanges [][2]int
	// Pipelined records every loop the modulo backend software-pipelined,
	// with its II search diagnostics (empty under the list backend).
	Pipelined []PipelinedLoop
	// Stats carries scheduling statistics.
	Stats Stats
}

// PipelinedLoop records one software-pipelined loop and the modulo
// scheduler's search diagnostics for it.
type PipelinedLoop struct {
	// II is the achieved initiation interval; MII = max(ResMII, RecMII)
	// is the lower bound, so II-MII is the achieved-vs-bound gap.
	II, MII, ResMII, RecMII int
	// Stages is the software-pipeline depth (overlapped iterations).
	Stages int
	// Ops counts the body operations placed (copies excluded); Copies the
	// routing copies the modulo solver inserted.
	Ops, Copies int
	// Backtracks totals ejections across all II attempts; Attempts the
	// number of II values tried.
	Backtracks, Attempts int
	// Start and End delimit the loop's context range [Start, End).
	Start, End int
}

// Stats summarizes a scheduling run.
type Stats struct {
	// CopiesInserted counts MOVE operations inserted for routing.
	CopiesInserted int
	// ConstsMaterialized counts CONST operations inserted.
	ConstsMaterialized int
	// FusedPWrites counts pWRITEs folded into their producers.
	FusedPWrites int
	// UnfusedPWrites counts pWRITEs executed as separate moves.
	UnfusedPWrites int
	// CBoxOps counts C-Box micro operations.
	CBoxOps int
	// Nodes counts CDFG nodes scheduled.
	Nodes int
	// PipelinedLoops counts loops the modulo backend software-pipelined.
	PipelinedLoops int
	// ModuloBacktracks totals modulo-scheduler ejections over all loops.
	ModuloBacktracks int
}

// DefaultMaxCycles is the schedule horizon of Options with MaxCycles 0.
const DefaultMaxCycles = 100_000

// Options tunes the scheduler; the zero value is the paper's configuration.
type Options struct {
	// Backend selects the scheduling strategy by name ("" = "list"). See
	// Backends() for the valid values; RunCtx rejects unknown names.
	Backend string
	// NoAttraction disables the attraction criterion (ablation A1):
	// candidate PEs are tried in index order.
	NoAttraction bool
	// NoFusing disables pWRITE fusing (ablation A2); reads stay fused
	// (the machine has no other way to access operands).
	NoFusing bool
	// MaxCycles aborts pathological schedules (0 = DefaultMaxCycles).
	MaxCycles int
	// Span, when non-nil, receives scheduling sub-phase timings (place,
	// verify) and result-size metrics as children/metrics.
	Span *obs.Span
	// Explain, when non-nil, records every candidate rejection the list
	// scheduler makes, classified by cause.
	Explain *ExplainLog
}
