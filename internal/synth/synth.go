// Package synth estimates FPGA synthesis results for CGRA compositions on
// the paper's target device, a Xilinx Virtex-7 XC7VX690T.
//
// Substitution note (see DESIGN.md §2): the paper obtains frequency and
// utilization from Vivado synthesis of the generated Verilog. Running
// Vivado is out of scope here, so this package provides an analytic model
// calibrated against the paper's Table II: LUT utilization grows linearly
// with the PE count, LUT-RAM with the register files, DSP blocks with the
// number of multiplier-capable PEs (3 DSP48 slices per block multiplier),
// one BRAM-equivalent context memory per PE plus one for C-Box/CCU, and a
// clock frequency that degrades with array size, input multiplexer fan-in
// and register-file depth. The model reproduces the paper's numbers within
// a few percent and — more importantly — their *shape*: linear utilization
// growth, frequency droop with PE count, the 75 % DSP saving of the
// inhomogeneous composition F, and the slowdown of wide register files.
package synth

import (
	"math"

	"cgra/internal/arch"
)

// Virtex-7 XC7VX690T resource totals.
const (
	DeviceDSPs  = 3600
	DeviceBRAMs = 1470
)

// Report is the estimated synthesis result for one composition.
type Report struct {
	Composition string
	// FreqMHz is the estimated maximum clock frequency.
	FreqMHz float64
	// LUTLogicPct, LUTMemPct, DSPPct, BRAMPct are device utilizations in
	// percent, matching the rows of Table II.
	LUTLogicPct float64
	LUTMemPct   float64
	DSPPct      float64
	BRAMPct     float64
	// DSPs and BRAMs are the absolute block counts behind the
	// percentages.
	DSPs  int
	BRAMs int
}

// ExecutionTimeMS converts a cycle count to milliseconds at the estimated
// frequency (Table IV).
func (r *Report) ExecutionTimeMS(cycles int64) float64 {
	return float64(cycles) / (r.FreqMHz * 1000.0)
}

// perPE LUT model: a PE frame (RF addressing, operand muxes, result paths)
// plus per-operation ALU slices. Values are fractions of the device in
// percent, fitted to Table II's 0.217 %-per-PE slope.
func peLUTPct(pe *arch.PE) float64 {
	cost := 0.150 // frame
	for op := range pe.Ops {
		switch {
		case op == arch.IMUL:
			cost += 0.0134 // wrapper around the DSP cascade
		case op == arch.ISHL || op == arch.ISHR || op == arch.IUSHR:
			cost += 0.008 // barrel shifter stage
		case op.IsDMA():
			cost += 0.006
		case op == arch.IADD || op == arch.ISUB:
			cost += 0.005
		case op.IsCompare():
			cost += 0.002
		case op == arch.NOP:
			// free
		default:
			cost += 0.002
		}
	}
	return cost
}

// Estimate models synthesis of the composition.
func Estimate(c *arch.Composition) *Report {
	r := &Report{Composition: c.Name}

	// LUT logic: per-PE cost plus the C-Box/CCU/top-level frame.
	lut := 0.145
	for _, pe := range c.PEs {
		lut += peLUTPct(pe)
	}
	r.LUTLogicPct = round2(lut)

	// LUT RAM: register files in distributed RAM, linear in depth.
	mem := 0.20
	for _, pe := range c.PEs {
		mem += 0.1008 * float64(pe.RegfileSize) / 128.0
	}
	r.LUTMemPct = round2(mem)

	// DSP blocks: 3 DSP48 slices per multiplier-capable PE.
	mulPEs := len(c.SupportingPEs(arch.IMUL))
	r.DSPs = 3 * mulPEs
	r.DSPPct = round2(float64(r.DSPs) / DeviceDSPs * 100)

	// Block RAM: one context memory per PE plus one shared for the
	// C-Box and CCU (the paper notes the efficient use of BRAMs for the
	// context memories).
	r.BRAMs = c.NumPEs() + 1
	r.BRAMPct = round2(float64(r.BRAMs) / DeviceBRAMs * 100)

	// Frequency: droop with PE count (longer nets), input multiplexer
	// fan-in (wider muxes on the operand path) and RF depth (the paper
	// measured +7.2 % when shrinking the RF from 128 to 32 entries).
	maxIn := 0
	for _, pe := range c.PEs {
		if len(pe.Inputs) > maxIn {
			maxIn = len(pe.Inputs)
		}
	}
	rf := float64(c.MaxRegfileSize())
	if rf < 32 {
		rf = 32
	}
	f := 114.0 -
		1.1*float64(c.NumPEs()) -
		1.0*float64(maxIn) -
		2.5*math.Log2(rf/32.0)
	// The single-cycle multiplier variant closes timing noticeably worse
	// (Table III vs Table II: roughly -15 %).
	if mulDuration(c) == 1 {
		f *= 0.85
	}
	r.FreqMHz = round1(f)
	return r
}

func mulDuration(c *arch.Composition) int {
	for _, pe := range c.PEs {
		if info, ok := pe.Ops[arch.IMUL]; ok {
			return info.Duration
		}
	}
	return 0
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
func round1(v float64) float64 { return math.Round(v*10) / 10 }
