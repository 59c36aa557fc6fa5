// Package ctxgen turns a schedule into context streams: one context memory
// per PE, one for the C-Box and the CCU jump table (paper §V-I, Fig. 10).
// It also computes the bit-mask that minimizes each context word's width
// (§IV-B: control-signal widths vary with neighbour count and RF size, so a
// bit-mask is created for each context).
package ctxgen

import (
	"fmt"
	"math/bits"

	"cgra/internal/alloc"
	"cgra/internal/arch"
	"cgra/internal/obs"
	"cgra/internal/sched"
)

// SrcMode encodes an operand multiplexer setting.
type SrcMode uint8

// Operand multiplexer settings.
const (
	SrcNone  SrcMode = iota
	SrcReg           // own register file
	SrcRoute         // a neighbour's routing output
)

// PECtx is one decoded context word of one PE. A multi-cycle operation
// occupies only its issue context; the PE holds it until completion.
//
// A program holds one PECtx per PE and context, most of them NOPs, so the
// fields are as narrow as their packed widths allow (56 bytes a word). Op
// is an arch.OpCode (an int) so that a decoder rejects an out-of-range
// opcode instead of wrapping it. The declaration order is the order fmt
// prints the fields in, which the schedule golden's context digests hash:
// reordering the fields moves every digest.
type PECtx struct {
	Op arch.OpCode
	// Operand A/B multiplexers. For SrcReg, Addr is the RF read address;
	// for SrcRoute, Input indexes the PE's Inputs list.
	AMode, BMode   SrcMode
	AAddr, BAddr   int32
	AInput, BInput int32
	// WriteAddr receives the result at the end of the op's final cycle.
	WriteEnable bool
	WriteAddr   int32
	// Predicated gates the commit (RF write / DMA access) with the
	// C-Box predication output of the issue cycle.
	Predicated bool
	// Imm is the CONST immediate.
	Imm int32
	// Array selects the DMA target array.
	Array int32
	// Outl drives the routing output with an RF read this cycle.
	OutlEnable bool
	OutlAddr   int32
}

// CBoxCtx is one decoded C-Box context word. Like PECtx its fields are
// narrow (64 bytes a word) and its declaration order is pinned by the
// schedule golden.
type CBoxCtx struct {
	// Consume combines the incoming status with a stored condition.
	Consume  bool
	StatusPE int32
	// Recombine combines two stored conditions instead.
	Recombine  bool
	Logic      sched.CBLogic
	AAddr      int32
	AInv       bool
	BAddr      int32
	BInv       bool
	WriteAddr  int32
	HasA, HasB bool
	// OutPE drives the predication signal from a stored slot.
	OutPEEnable bool
	OutPEAddr   int32
	// OutCtrl drives the branch-selection signal from a stored slot.
	OutCtrlEnable bool
	OutCtrlAddr   int32
	OutCtrlInv    bool
}

// CCUCtx is one decoded context-control word.
type CCUCtx struct {
	// Mode: 0 increment, 1 unconditional jump, 2 conditional jump (taken
	// when the branch-selection signal is true).
	Mode   int
	Target int
}

// CCU modes.
const (
	CCUInc = iota
	CCUJump
	CCUCondJump
)

// PEFormat describes the bit layout of one PE's context word after
// bit-mask minimization.
type PEFormat struct {
	OpBits     int
	AModeBits  int
	AAddrBits  int
	AInputBits int
	BModeBits  int
	BAddrBits  int
	BInputBits int
	WriteBits  int // enable + address
	PredBits   int
	ImmBits    int
	ArrayBits  int
	OutlBits   int // enable + address
}

// Width returns the total context word width in bits.
func (f PEFormat) Width() int {
	return f.OpBits + f.AModeBits + f.AAddrBits + f.AInputBits +
		f.BModeBits + f.BAddrBits + f.BInputBits +
		f.WriteBits + f.PredBits + f.ImmBits + f.ArrayBits + f.OutlBits
}

// Home locates one live-in/live-out local's home RF slot.
type Home struct {
	PE   int
	Addr int
}

// Program is the complete configuration of a composition for one kernel:
// what the paper's context generator emits and the hardware executes. It
// is self-contained — nothing in it points back into the compiler's graph
// or schedule — and nothing writes it after Generate, so a compiled
// kernel, its cache entry and every kernel realized from that entry share
// one Program.
type Program struct {
	// Kernel is the kernel name.
	Kernel string
	// Comp is the composition the program configures.
	Comp *arch.Composition
	// NumCtx is the number of contexts (Table I's "used contexts").
	NumCtx int
	// Formats gives each PE's minimized context layout. It and the
	// control-word widths below are derived from Comp, Alloc, Arrays and
	// NumCtx (computeFormats), so only the images they size are stored.
	Formats []PEFormat
	// PE[pe][cycle] is the decoded context stream.
	PE [][]PECtx
	// CBox[cycle] is the C-Box context stream.
	CBox []CBoxCtx
	// CCU[cycle] is the jump table.
	CCU []CCUCtx
	// CBoxWidth and CCUWidth are the control-word widths.
	CBoxWidth, CCUWidth int
	// Homes maps each live-in/live-out local to its home RF slot.
	Homes map[string]Home
	// LiveIns and LiveOuts list the locals in transfer order.
	LiveIns, LiveOuts []string
	// Arrays is the array table: the array parameters in DMA-index order.
	Arrays []string
	// Alloc holds the allocation results (per-PE RF usage, condition
	// memory slots).
	Alloc *alloc.Result
}

// TotalContextBits returns the total context storage this program needs.
func (p *Program) TotalContextBits() int {
	bits := 0
	for _, f := range p.Formats {
		bits += f.Width() * p.NumCtx
	}
	bits += (p.CBoxWidth + p.CCUWidth) * p.NumCtx
	return bits
}

// Generate allocates the schedule (left-edge RF and condition-memory
// assignment) and emits the context streams.
func Generate(s *sched.Schedule) (*Program, error) {
	return GenerateSpan(s, nil)
}

// GenerateSpan is Generate with phase instrumentation: the RF/C-Box
// allocation and the context encoding are recorded as children of span
// (nil span = no instrumentation).
func GenerateSpan(s *sched.Schedule, span *obs.Span) (*Program, error) {
	as := span.StartChild("alloc")
	res, err := alloc.Allocate(s)
	as.Finish()
	if err != nil {
		return nil, fmt.Errorf("ctxgen: %v", err)
	}
	as.Set("max_rf", int64(res.MaxRF()))
	as.Set("cbox_slots", int64(res.CBoxUsage))
	es := span.StartChild("encode")
	defer es.Finish()
	n := s.Length
	if n > s.Comp.ContextSize {
		return nil, fmt.Errorf("ctxgen: schedule needs %d contexts, memory holds %d",
			n, s.Comp.ContextSize)
	}
	p := &Program{
		Kernel:   s.Graph.KernelName,
		Comp:     s.Comp,
		NumCtx:   n,
		PE:       make([][]PECtx, s.Comp.NumPEs()),
		CBox:     make([]CBoxCtx, n),
		CCU:      make([]CCUCtx, n),
		Homes:    make(map[string]Home, len(s.Homes)),
		LiveIns:  s.Graph.LiveIns(),
		LiveOuts: s.Graph.LiveOuts(),
		Arrays:   append([]string(nil), s.Graph.Arrays...),
		Alloc:    res,
	}
	for name, v := range s.Homes {
		p.Homes[name] = Home{PE: v.PE, Addr: v.Addr}
	}
	words := make([]PECtx, len(p.PE)*n) // one slab; each stream is capped
	for pe := range p.PE {
		p.PE[pe] = words[pe*n : (pe+1)*n : (pe+1)*n]
	}
	for _, op := range s.Ops {
		ctx := &p.PE[op.PE][op.Cycle]
		if ctx.Op != arch.NOP {
			return nil, fmt.Errorf("ctxgen: PE %d cycle %d double-booked", op.PE, op.Cycle)
		}
		ctx.Op = op.Code
		ctx.Imm = op.Imm
		ctx.Array = int32(op.Array)
		if err := p.encodeSrc(op, op.A, &ctx.AMode, &ctx.AAddr, &ctx.AInput); err != nil {
			return nil, err
		}
		if err := p.encodeSrc(op, op.B, &ctx.BMode, &ctx.BAddr, &ctx.BInput); err != nil {
			return nil, err
		}
		if op.Dest != nil {
			ctx.WriteEnable = true
			ctx.WriteAddr = int32(op.Dest.Addr)
		}
		if op.PredSlot != nil {
			ctx.Predicated = true
		}
	}
	// Routing outputs: every routed read makes the source PE present the
	// value on outl in that cycle.
	for _, op := range s.Ops {
		for _, src := range []sched.Src{op.A, op.B} {
			if src.Kind != sched.SrcRoute {
				continue
			}
			ctx := &p.PE[src.FromPE][op.Cycle]
			addr := int32(src.Val.Addr)
			if ctx.OutlEnable && ctx.OutlAddr != addr {
				return nil, fmt.Errorf("ctxgen: outl conflict on PE %d cycle %d", src.FromPE, op.Cycle)
			}
			ctx.OutlEnable = true
			ctx.OutlAddr = addr
		}
	}
	// C-Box contexts.
	for _, cb := range s.CBox {
		ctx := &p.CBox[cb.Cycle]
		if ctx.Consume || ctx.Recombine {
			return nil, fmt.Errorf("ctxgen: C-Box cycle %d double-booked", cb.Cycle)
		}
		ctx.Logic = cb.Logic
		ctx.WriteAddr = int32(cb.Write.Phys)
		if cb.Kind == sched.CBConsume {
			ctx.Consume = true
			ctx.StatusPE = int32(cb.StatusPE)
		} else {
			ctx.Recombine = true
		}
		if cb.A != nil {
			ctx.HasA = true
			ctx.AAddr = int32(cb.A.Phys)
			ctx.AInv = cb.InvA
		}
		if cb.B != nil {
			ctx.HasB = true
			ctx.BAddr = int32(cb.B.Phys)
			ctx.BInv = cb.InvB
		}
	}
	// Predication reads: all predicated commits of one cycle share a slot.
	for _, op := range s.Ops {
		if op.PredSlot == nil {
			continue
		}
		ctx := &p.CBox[op.Cycle]
		addr := int32(op.PredSlot.Phys)
		if ctx.OutPEEnable && ctx.OutPEAddr != addr {
			return nil, fmt.Errorf("ctxgen: two predication slots at cycle %d", op.Cycle)
		}
		ctx.OutPEEnable = true
		ctx.OutPEAddr = addr
	}
	// CCU contexts and branch-selection reads.
	for cycle, j := range s.CCU {
		c := &p.CCU[cycle]
		c.Target = j.Target
		if j.Uncond {
			c.Mode = CCUJump
			continue
		}
		c.Mode = CCUCondJump
		ctx := &p.CBox[cycle]
		if ctx.OutCtrlEnable {
			return nil, fmt.Errorf("ctxgen: two branch selections at cycle %d", cycle)
		}
		ctx.OutCtrlEnable = true
		ctx.OutCtrlAddr = int32(j.Slot.Phys)
		ctx.OutCtrlInv = j.Invert
	}
	p.computeFormats()
	es.Set("contexts", int64(n))
	es.Set("context_bits", int64(p.TotalContextBits()))
	return p, nil
}

func (p *Program) encodeSrc(op *sched.Op, src sched.Src, mode *SrcMode, addr, input *int32) error {
	switch src.Kind {
	case sched.SrcNone:
		*mode = SrcNone
	case sched.SrcReg:
		*mode = SrcReg
		*addr = int32(src.Val.Addr)
	case sched.SrcRoute:
		*mode = SrcRoute
		idx := -1
		for i, in := range p.Comp.PEs[op.PE].Inputs {
			if in == src.FromPE {
				idx = i
			}
		}
		if idx < 0 {
			return fmt.Errorf("ctxgen: op %v routes from non-input PE %d", op, src.FromPE)
		}
		*input = int32(idx)
		*addr = int32(src.Val.Addr)
	}
	return nil
}

// computeFormats derives the minimized per-PE context layouts: address
// fields sized by actual RF usage, input selectors by neighbour count,
// immediate and DMA fields only where the PE uses them (§IV-B bit-masks).
// Generate and ReadImages both call it, so a decoded program has the
// layouts its images were packed with.
func (p *Program) computeFormats() {
	comp, res := p.Comp, p.Alloc
	p.Formats = make([]PEFormat, comp.NumPEs())
	for i, pe := range comp.PEs {
		f := &p.Formats[i]
		f.OpBits = bitsFor(len(pe.Ops) + 1)
		addrBits := bitsFor(res.RFUsage[i])
		inputBits := bitsFor(len(pe.Inputs))
		f.AModeBits, f.BModeBits = 2, 2
		f.AAddrBits, f.BAddrBits = addrBits, addrBits
		f.AInputBits, f.BInputBits = inputBits, inputBits
		f.WriteBits = 1 + addrBits
		f.PredBits = 1
		if pe.Supports(arch.CONST) {
			f.ImmBits = 32
		}
		if pe.HasDMA {
			f.ArrayBits = bitsFor(len(p.Arrays))
		}
		f.OutlBits = 1 + addrBits
	}
	slotBits := bitsFor(res.CBoxUsage)
	// status source select + logic + A/B addr + inverts + write.
	p.CBoxWidth = bitsFor(comp.NumPEs()) + 2 + 2 + (slotBits+1)*2 + 1 + slotBits +
		(1 + slotBits) + (1 + slotBits + 1)
	p.CCUWidth = 2 + bitsFor(p.NumCtx)
}

// bitsFor returns ceil(log2(n)) with a minimum of 1.
func bitsFor(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}
