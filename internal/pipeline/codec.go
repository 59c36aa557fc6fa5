package pipeline

// The artifact codec: the fixed, versioned binary layout of an Artifact,
// which is the payload of every compiled-kernel cache entry. An encoding
// written by one build must decode identically in every build of the same
// ArtifactVersion, so the layout is pinned by testdata/artifact.golden; a
// layout change bumps ArtifactVersion (which also re-keys the cache) and
// regenerates the golden file in the same diff.
//
// Layout: the magic "CGAR", ArtifactVersion, then the Program's fields in
// declaration order (Kernel through Alloc's RFUsage and CBoxUsage) except
// the ones ctxgen derives (Formats, CBoxWidth, CCUWidth) and the context
// streams, which come last. Each field is written as
//
//	int            zigzag varint (binary.AppendVarint)
//	bool           one byte, 0 or 1
//	string         uvarint byte length, then the bytes
//	slice, map     uvarint element count, then the elements
//	float64        uvarint of the IEEE-754 bits byte-reversed, so round
//	               values such as 1.0 or 2.5 take two or three bytes
//	struct         its fields in declaration order
//
// with two fixed forms: a PE's Ops are written in ascending opcode order
// (opcode, Energy, Duration) and Homes in ascending name order (name, PE,
// Addr). Last come the number of PE context streams and their images:
// NumCtx words per PE, packed with the PE's minimized format and written
// by ctxgen.Program.AppendImages. The decoder derives the formats from the
// fields before them (ctxgen.Program.ReadImages), so they are not stored.
// Nothing may follow the images.
//
// The decoder treats its input as hostile — a cache directory is outside
// the program, and anything may have written it: every count is bounded by
// the bytes left, so a corrupt entry is an error, never a panic or an
// allocation the input cannot back. It also refuses a well-formed encoding
// that does not describe a runnable program for its composition (an
// invalid composition, tables or images sized for another array or
// another context count, a home off the array), so a decoded artifact
// always unpacks and realizes.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"cgra/internal/alloc"
	"cgra/internal/arch"
	"cgra/internal/ctxgen"
	"cgra/internal/sched"
)

var artifactMagic = []byte("CGAR")

type encoder struct{ buf []byte }

func (e *encoder) int(v int) { e.buf = binary.AppendVarint(e.buf, int64(v)) }

func (e *encoder) count(n int) { e.buf = binary.AppendUvarint(e.buf, uint64(n)) }

func (e *encoder) bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *encoder) str(s string) {
	e.count(len(s))
	e.buf = append(e.buf, s...)
}

func (e *encoder) float(f float64) {
	e.buf = binary.AppendUvarint(e.buf, bits.ReverseBytes64(math.Float64bits(f)))
}

func (e *encoder) strs(ss []string) {
	e.count(len(ss))
	for _, s := range ss {
		e.str(s)
	}
}

// AppendBinary appends the artifact's binary encoding to dst, packing each
// PE's context image on the way.
func (a *Artifact) AppendBinary(dst []byte) ([]byte, error) {
	p := a.Program
	if p == nil || p.Comp == nil {
		return dst, fmt.Errorf("pipeline: artifact has no program or composition")
	}
	e := &encoder{buf: slices.Grow(dst, sizeHint(p))}
	e.buf = append(e.buf, artifactMagic...)
	e.int(ArtifactVersion)
	e.str(p.Kernel)
	if err := e.comp(p.Comp); err != nil {
		return dst, fmt.Errorf("pipeline: artifact %q: %v", p.Kernel, err)
	}
	e.int(p.NumCtx)
	e.count(len(p.CBox))
	for _, c := range p.CBox {
		e.bool(c.Consume)
		e.int(int(c.StatusPE))
		e.bool(c.Recombine)
		e.int(int(c.Logic))
		e.int(int(c.AAddr))
		e.bool(c.AInv)
		e.int(int(c.BAddr))
		e.bool(c.BInv)
		e.int(int(c.WriteAddr))
		e.bool(c.HasA)
		e.bool(c.HasB)
		e.bool(c.OutPEEnable)
		e.int(int(c.OutPEAddr))
		e.bool(c.OutCtrlEnable)
		e.int(int(c.OutCtrlAddr))
		e.bool(c.OutCtrlInv)
	}
	e.count(len(p.CCU))
	for _, c := range p.CCU {
		e.int(c.Mode)
		e.int(c.Target)
	}
	names := make([]string, 0, len(p.Homes))
	for name := range p.Homes {
		names = append(names, name)
	}
	slices.Sort(names)
	e.count(len(names))
	for _, name := range names {
		e.str(name)
		e.int(p.Homes[name].PE)
		e.int(p.Homes[name].Addr)
	}
	e.strs(p.LiveIns)
	e.strs(p.LiveOuts)
	e.strs(p.Arrays)
	e.count(len(p.Alloc.RFUsage))
	for _, v := range p.Alloc.RFUsage {
		e.int(v)
	}
	e.int(p.Alloc.CBoxUsage)
	e.count(len(p.PE))
	buf, err := p.AppendImages(e.buf)
	if err != nil {
		return dst, fmt.Errorf("pipeline: artifact %q: %v", p.Kernel, err)
	}
	return buf, nil
}

func (e *encoder) comp(c *arch.Composition) error {
	e.str(c.Name)
	e.int(c.ContextSize)
	e.int(c.CBoxSlots)
	e.count(len(c.PEs))
	for i, pe := range c.PEs {
		if pe == nil {
			return fmt.Errorf("PE %d is nil", i)
		}
		e.str(pe.Name)
		e.int(pe.Index)
		e.int(pe.RegfileSize)
		ops := make([]arch.OpCode, 0, len(pe.Ops))
		for op := range pe.Ops {
			ops = append(ops, op)
		}
		slices.Sort(ops)
		e.count(len(ops))
		for _, op := range ops {
			e.int(int(op))
			e.float(pe.Ops[op].Energy)
			e.int(pe.Ops[op].Duration)
		}
		e.bool(pe.HasDMA)
		e.count(len(pe.Inputs))
		for _, in := range pe.Inputs {
			e.int(in)
		}
	}
	return nil
}

// sizeHint is a generous estimate of the encoded size, most of which is
// the context images, so encoding into a fresh buffer allocates it once.
func sizeHint(p *ctxgen.Program) int {
	n := 512 + 256*len(p.Comp.PEs) + 32*len(p.CBox) + 8*len(p.CCU)
	for pe, stream := range p.PE {
		n += 8 * len(stream) * ((p.Formats[pe].Width() + 63) / 64)
	}
	return n
}

// decoder reads the layout back. The first error sticks: every later read
// returns a zero value, and UnmarshalBinary reports that first error.
type decoder struct {
	data []byte
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.fail("bad integer at %d bytes from the end", len(d.data))
		return 0
	}
	d.data = d.data[n:]
	return int(v)
}

// int32 reads an integer that must fit a 32-bit context field; a wider
// one is an error, not a wrapped value.
func (d *decoder) int32() int32 {
	v := d.int()
	if v != int(int32(v)) {
		d.fail("integer %d does not fit 32 bits", v)
		return 0
	}
	return int32(v)
}

// count reads an element count and bounds it by the bytes left: each
// element takes at least each bytes.
func (d *decoder) count(each int) int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.fail("bad count at %d bytes from the end", len(d.data))
		return 0
	}
	d.data = d.data[n:]
	if v > uint64(len(d.data)/each) {
		d.fail("count %d exceeds the %d bytes left", v, len(d.data))
		return 0
	}
	return int(v)
}

func (d *decoder) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.data) == 0 || d.data[0] > 1 {
		d.fail("bad bool at %d bytes from the end", len(d.data))
		return false
	}
	b := d.data[0] == 1
	d.data = d.data[1:]
	return b
}

func (d *decoder) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	f := math.Float64frombits(bits.ReverseBytes64(v))
	if n <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		d.fail("bad float at %d bytes from the end", len(d.data))
		return 0
	}
	d.data = d.data[n:]
	return f
}

func (d *decoder) strs() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

// UnmarshalBinary decodes an artifact from data, which must hold exactly
// one encoding written by AppendBinary of a runnable program.
func (a *Artifact) UnmarshalBinary(data []byte) error {
	if len(data) < len(artifactMagic) || string(data[:len(artifactMagic)]) != string(artifactMagic) {
		return fmt.Errorf("pipeline: decode artifact: bad magic")
	}
	d := &decoder{data: data[len(artifactMagic):]}
	version := d.int()
	if d.err == nil && version != ArtifactVersion {
		return fmt.Errorf("pipeline: decode artifact: format version %d, want %d", version, ArtifactVersion)
	}
	p := &ctxgen.Program{Kernel: d.str(), Comp: d.comp(), NumCtx: d.int()}
	if n := d.count(16); n > 0 {
		p.CBox = make([]ctxgen.CBoxCtx, n)
		for i := range p.CBox {
			c := &p.CBox[i]
			c.Consume = d.bool()
			c.StatusPE = d.int32()
			c.Recombine = d.bool()
			c.Logic = sched.CBLogic(d.int())
			c.AAddr = d.int32()
			c.AInv = d.bool()
			c.BAddr = d.int32()
			c.BInv = d.bool()
			c.WriteAddr = d.int32()
			c.HasA = d.bool()
			c.HasB = d.bool()
			c.OutPEEnable = d.bool()
			c.OutPEAddr = d.int32()
			c.OutCtrlEnable = d.bool()
			c.OutCtrlAddr = d.int32()
			c.OutCtrlInv = d.bool()
		}
	}
	if n := d.count(2); n > 0 {
		p.CCU = make([]ctxgen.CCUCtx, n)
		for i := range p.CCU {
			p.CCU[i] = ctxgen.CCUCtx{Mode: d.int(), Target: d.int()}
		}
	}
	n := d.count(3)
	p.Homes = make(map[string]ctxgen.Home, n)
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		name := d.str()
		if i > 0 && name <= prev {
			d.fail("home %q out of order", name)
		}
		p.Homes[name] = ctxgen.Home{PE: d.int(), Addr: d.int()}
		prev = name
	}
	p.LiveIns = d.strs()
	p.LiveOuts = d.strs()
	p.Arrays = d.strs()
	p.Alloc = &alloc.Result{}
	if n := d.count(1); n > 0 {
		p.Alloc.RFUsage = make([]int, n)
		for i := range p.Alloc.RFUsage {
			p.Alloc.RFUsage[i] = d.int()
		}
	}
	p.Alloc.CBoxUsage = d.int()
	images := d.count(1)
	if d.err == nil {
		d.err = fits(p, images)
	}
	if d.err == nil {
		d.data, d.err = p.ReadImages(d.data)
	}
	if d.err == nil && len(d.data) > 0 {
		d.fail("%d trailing bytes", len(d.data))
	}
	if d.err != nil {
		return fmt.Errorf("pipeline: decode artifact: %w", d.err)
	}
	*a = Artifact{Program: p}
	return nil
}

// fits checks that a decoded program fits its composition — a valid
// composition, one image per PE, control tables of NumCtx contexts, every
// home on the array — before ReadImages checks the allocation and derives
// the formats from them.
func fits(p *ctxgen.Program, images int) error {
	if err := p.Comp.Validate(); err != nil {
		return err
	}
	n := p.Comp.NumPEs()
	if images != n {
		return fmt.Errorf("%d images for %d PEs", images, n)
	}
	if len(p.CBox) != p.NumCtx || len(p.CCU) != p.NumCtx {
		return fmt.Errorf("control tables hold %d/%d entries, want %d", len(p.CBox), len(p.CCU), p.NumCtx)
	}
	for name, h := range p.Homes {
		if h.PE < 0 || h.PE >= n {
			return fmt.Errorf("home of %q on PE %d out of range", name, h.PE)
		}
	}
	return nil
}

func (d *decoder) comp() *arch.Composition {
	c := &arch.Composition{Name: d.str(), ContextSize: d.int(), CBoxSlots: d.int()}
	n := d.count(6)
	if n > 0 {
		c.PEs = make([]*arch.PE, n)
	}
	for i := range c.PEs {
		if d.err != nil {
			break
		}
		pe := &arch.PE{Name: d.str(), Index: d.int(), RegfileSize: d.int()}
		nops := d.count(3)
		pe.Ops = make(map[arch.OpCode]arch.OpInfo, nops)
		prev := arch.OpCode(-1)
		for j := 0; j < nops && d.err == nil; j++ {
			op := arch.OpCode(d.int())
			if !op.Valid() || op <= prev {
				d.fail("PE %d: opcode %d invalid or out of order", i, int(op))
			}
			pe.Ops[op] = arch.OpInfo{Energy: d.float(), Duration: d.int()}
			prev = op
		}
		pe.HasDMA = d.bool()
		if nin := d.count(1); nin > 0 {
			pe.Inputs = make([]int, nin)
			for j := range pe.Inputs {
				pe.Inputs[j] = d.int()
			}
		}
		c.PEs[i] = pe
	}
	return c
}
