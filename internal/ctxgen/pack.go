package ctxgen

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"cgra/internal/arch"
)

// This file packs decoded contexts into binary context words using the
// minimized per-PE formats — the bit streams the paper's context generator
// writes into the context memories (Fig. 10 shows them as raw bits).
// Packing and unpacking round-trip, which the tests use to prove the
// minimized widths are sufficient.
//
// A PE's image is its context memory: NumCtx words of Formats[pe].Width()
// bits, each stored LSB-first in ceil(width/64) 64-bit chunks. The images
// carry no header of their own: the formats that size them are derived
// from the rest of the Program (computeFormats), so AppendImages writes
// the chunks alone and ReadImages re-derives the formats before reading.

// packer assembles one word LSB-first into bits, which holds the word's
// chunks (zeroed) up front.
type packer struct {
	bits  []uint64
	width int
}

// put appends the low width bits of value (bits past the 64th are zero).
// Bits past the end of the word are dropped; packPE then reports the width
// mismatch.
func (p *packer) put(value uint64, width int) {
	if width > 0 && p.width >= 0 {
		if width < 64 {
			value &= 1<<uint(width) - 1
		}
		idx, off := p.width/64, uint(p.width%64)
		if idx < len(p.bits) {
			p.bits[idx] |= value << off
		}
		if off > 0 && int(off)+width > 64 && idx+1 < len(p.bits) {
			p.bits[idx+1] |= value >> (64 - off)
		}
	}
	p.width += width
}

func (p *packer) putBool(b bool) {
	v := uint64(0)
	if b {
		v = 1
	}
	p.put(v, 1)
}

// unpacker reads a word back LSB-first; bits past the word read as zero.
type unpacker struct {
	bits []uint64
	pos  int
}

// get reads the next width bits (at most 64 of them carry a value).
func (u *unpacker) get(width int) uint64 {
	var v uint64
	if width > 0 && u.pos >= 0 {
		idx, off := u.pos/64, uint(u.pos%64)
		if idx < len(u.bits) {
			v = u.bits[idx] >> off
		}
		if off > 0 && int(off)+width > 64 && idx+1 < len(u.bits) {
			v |= u.bits[idx+1] << (64 - off)
		}
		if width < 64 {
			v &= 1<<uint(width) - 1
		}
	}
	u.pos += width
	return v
}

func (u *unpacker) getBool() bool { return u.get(1) != 0 }

// opTable returns the PE's operation encoding table: index 0 is NOP, the
// implemented operations follow in opcode order. This matches the case
// indices of the generated ALU Verilog (vgen) and keeps the op field within
// the minimized width even for PEs with sparse operation sets.
func (p *Program) opTable(pe int) []arch.OpCode {
	ops := make([]arch.OpCode, 0, len(p.Comp.PEs[pe].Ops)+1)
	ops = append(ops, arch.NOP)
	for op := range p.Comp.PEs[pe].Ops {
		if op != arch.NOP {
			ops = append(ops, op)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	return ops
}

func opIndex(table []arch.OpCode, op arch.OpCode) (uint64, error) {
	for i, o := range table {
		if o == op {
			return uint64(i), nil
		}
	}
	return 0, fmt.Errorf("ctxgen: op %v not in PE's table", op)
}

// chunksPerWord is the number of 64-bit chunks backing one word of PE
// pe's context memory.
func (p *Program) chunksPerWord(pe int) int { return (p.Formats[pe].Width() + 63) / 64 }

// packPE encodes one PE's context stream with its minimized format: the
// words of its contexts, one after another.
func (p *Program) packPE(pe int) ([]uint64, error) {
	f := p.Formats[pe]
	table := p.opTable(pe)
	stream := p.PE[pe]
	chunks := p.chunksPerWord(pe)
	words := make([]uint64, len(stream)*chunks)
	for cycle, ctx := range stream {
		pk := &packer{bits: words[cycle*chunks : (cycle+1)*chunks : (cycle+1)*chunks]}
		opIdx, err := opIndex(table, ctx.Op)
		if err != nil {
			return nil, err
		}
		pk.put(opIdx, f.OpBits)
		pk.put(uint64(ctx.AMode), f.AModeBits)
		pk.put(uint64(ctx.AAddr), f.AAddrBits)
		pk.put(uint64(ctx.AInput), f.AInputBits)
		pk.put(uint64(ctx.BMode), f.BModeBits)
		pk.put(uint64(ctx.BAddr), f.BAddrBits)
		pk.put(uint64(ctx.BInput), f.BInputBits)
		pk.putBool(ctx.WriteEnable)
		pk.put(uint64(ctx.WriteAddr), f.WriteBits-1)
		pk.putBool(ctx.Predicated)
		pk.put(uint64(uint32(ctx.Imm)), f.ImmBits)
		pk.put(uint64(ctx.Array), f.ArrayBits)
		pk.putBool(ctx.OutlEnable)
		pk.put(uint64(ctx.OutlAddr), f.OutlBits-1)
		if pk.width != f.Width() {
			return nil, fmt.Errorf("ctxgen: PE %d cycle %d packed %d bits, format says %d",
				pe, cycle, pk.width, f.Width())
		}
	}
	return words, nil
}

// unpackPE decodes words packed by packPE back into contexts.
func (p *Program) unpackPE(pe int, words []uint64) ([]PECtx, error) {
	f := p.Formats[pe]
	table := p.opTable(pe)
	chunks := p.chunksPerWord(pe)
	out := make([]PECtx, len(words)/chunks)
	for i := range out {
		u := &unpacker{bits: words[i*chunks : (i+1)*chunks]}
		c := &out[i]
		idx := u.get(f.OpBits)
		if idx >= uint64(len(table)) {
			return nil, fmt.Errorf("ctxgen: PE %d context %d: op index %d outside PE's table", pe, i, idx)
		}
		c.Op = table[idx]
		c.AMode = SrcMode(u.get(f.AModeBits))
		c.AAddr = int32(u.get(f.AAddrBits))
		c.AInput = int32(u.get(f.AInputBits))
		c.BMode = SrcMode(u.get(f.BModeBits))
		c.BAddr = int32(u.get(f.BAddrBits))
		c.BInput = int32(u.get(f.BInputBits))
		c.WriteEnable = u.getBool()
		c.WriteAddr = int32(u.get(f.WriteBits - 1))
		c.Predicated = u.getBool()
		c.Imm = int32(uint32(u.get(f.ImmBits)))
		c.Array = int32(u.get(f.ArrayBits))
		c.OutlEnable = u.getBool()
		c.OutlAddr = int32(u.get(f.OutlBits - 1))
	}
	return out, nil
}

// AppendImages packs each PE's context stream with its minimized format
// and appends the words to dst as 64-bit little-endian chunks, PE by PE.
func (p *Program) AppendImages(dst []byte) ([]byte, error) {
	for pe := range p.PE {
		words, err := p.packPE(pe)
		if err != nil {
			return dst, err
		}
		for _, c := range words {
			dst = binary.LittleEndian.AppendUint64(dst, c)
		}
	}
	return dst, nil
}

// ReadImages is AppendImages' inverse for a Program whose composition,
// allocation, array table and context count are set: it derives the
// formats (and control widths) from them as Generate does, reads one image
// of NumCtx words per PE of the composition from the front of data into
// p.PE and returns the bytes after the images. The composition must be
// valid; a context count or an allocation that does not fit it, or an
// image that is short or holds an op the PE lacks, is an error.
func (p *Program) ReadImages(data []byte) ([]byte, error) {
	n := p.Comp.NumPEs()
	if p.Alloc == nil || len(p.Alloc.RFUsage) != n {
		return nil, fmt.Errorf("ctxgen: allocation does not hold one RF usage per PE of %d", n)
	}
	for pe, used := range p.Alloc.RFUsage {
		// The address fields are sized by the usage and decoded into int32.
		if used < 0 || used > math.MaxInt32 {
			return nil, fmt.Errorf("ctxgen: PE %d uses %d RF entries", pe, used)
		}
	}
	p.computeFormats()
	chunks := 0
	for pe := range n {
		chunks += p.chunksPerWord(pe)
	}
	if p.NumCtx < 0 || chunks == 0 || p.NumCtx > len(data)/8/chunks {
		return nil, fmt.Errorf("ctxgen: %d contexts of %d chunks each exceed the %d bytes left",
			p.NumCtx, chunks, len(data))
	}
	all := make([]uint64, p.NumCtx*chunks)
	for i := range all {
		all[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	p.PE = make([][]PECtx, n)
	for pe := range p.PE {
		size := p.NumCtx * p.chunksPerWord(pe)
		ctxs, err := p.unpackPE(pe, all[:size])
		if err != nil {
			return nil, err
		}
		p.PE[pe], all = ctxs, all[size:]
	}
	return data[8*p.NumCtx*chunks:], nil
}
