package arch

import "fmt"

// MaxDMAPEs is the architectural limit on PEs with a DMA interface
// (paper §IV-A1: "up to four PEs can feature a DMA interface").
const MaxDMAPEs = 4

// PE describes one processing element of a composition.
type PE struct {
	// Name labels the PE kind (e.g. "PE_mem", "PE_no_mem").
	Name string
	// Index is the PE's position in the composition.
	Index int
	// RegfileSize is the number of RF entries.
	RegfileSize int
	// Ops maps each implemented operation to its parameters. PEs are
	// inhomogeneous: different PEs may implement different operation sets.
	Ops map[OpCode]OpInfo
	// HasDMA marks PEs with a direct-memory-access interface to the host
	// heap. Their RF has a third read port for the access index and a
	// third input multiplexer path for incoming memory data (§IV-A1).
	HasDMA bool
	// Inputs lists the PE indices whose routing output (outl) this PE can
	// read. The interconnect is arbitrary and possibly irregular.
	Inputs []int
}

// Supports reports whether the PE implements op. NOP is always available.
func (pe *PE) Supports(op OpCode) bool {
	if op == NOP {
		return true
	}
	_, ok := pe.Ops[op]
	return ok
}

// Duration returns the latency of op on this PE (1 if unknown, so callers
// can query NOP uniformly).
func (pe *PE) Duration(op OpCode) int {
	if info, ok := pe.Ops[op]; ok && info.Duration > 0 {
		return info.Duration
	}
	return 1
}

// Energy returns the energy cost of op on this PE.
func (pe *PE) Energy(op OpCode) float64 {
	if info, ok := pe.Ops[op]; ok {
		return info.Energy
	}
	return 0
}

// CanReadFrom reports whether this PE has a routing input from src.
func (pe *PE) CanReadFrom(src int) bool {
	for _, in := range pe.Inputs {
		if in == src {
			return true
		}
	}
	return false
}

// Composition is a full CGRA instance: its PEs, interconnect, and the sizing
// of the context memories and the C-Box condition memory. The paper calls
// the infrastructure plus the operation spectrum the "composition".
type Composition struct {
	Name string
	PEs  []*PE
	// ContextSize is the depth of each context memory (number of contexts).
	ContextSize int
	// CBoxSlots is the size of the C-Box condition memory; it limits the
	// number of parallel branch/loop conditions in flight (§IV footnote 2).
	CBoxSlots int
}

// NumPEs returns the number of processing elements.
func (c *Composition) NumPEs() int { return len(c.PEs) }

// DMAPEs returns the indices of PEs with a DMA interface, ascending.
func (c *Composition) DMAPEs() []int {
	var out []int
	for _, pe := range c.PEs {
		if pe.HasDMA {
			out = append(out, pe.Index)
		}
	}
	return out
}

// Degree returns the total connectivity of PE i (inputs + distinct readers).
// The scheduler uses it to break attraction ties: better-connected PEs make
// later routing easier (§V-G).
func (c *Composition) Degree(i int) int {
	d := len(c.PEs[i].Inputs)
	for _, pe := range c.PEs {
		if pe.CanReadFrom(i) {
			d++
		}
	}
	return d
}

// SupportingPEs returns the indices of PEs implementing op, ascending.
func (c *Composition) SupportingPEs(op OpCode) []int {
	var out []int
	for _, pe := range c.PEs {
		if pe.Supports(op) {
			out = append(out, pe.Index)
		}
	}
	return out
}

// Validate checks architectural constraints: consistent indices, at most
// four DMA PEs, interconnect references in range, no self-loops, positive
// RF and memory sizes, and every op parameterized with a positive duration.
func (c *Composition) Validate() error {
	if len(c.PEs) == 0 {
		return fmt.Errorf("composition %s: no PEs", c.Name)
	}
	if c.ContextSize <= 0 {
		return fmt.Errorf("composition %s: non-positive context memory length", c.Name)
	}
	if c.CBoxSlots <= 0 {
		return fmt.Errorf("composition %s: non-positive C-Box condition memory size", c.Name)
	}
	dma := 0
	// listedBy[src] is 1 + the last PE that listed src as an input; it
	// lives on the stack unless the composition is unusually large.
	var stamps [64]int
	listedBy := stamps[:]
	if len(c.PEs) > len(stamps) {
		listedBy = make([]int, len(c.PEs))
	}
	for i, pe := range c.PEs {
		if pe == nil {
			return fmt.Errorf("composition %s: PE %d is nil", c.Name, i)
		}
		if pe.Index != i {
			return fmt.Errorf("composition %s: PE at position %d has index %d", c.Name, i, pe.Index)
		}
		if pe.RegfileSize <= 0 {
			return fmt.Errorf("composition %s: PE %d has non-positive RF size", c.Name, i)
		}
		if pe.HasDMA {
			dma++
		}
		if pe.HasDMA != (pe.Supports(LOAD) || pe.Supports(STORE)) {
			return fmt.Errorf("composition %s: PE %d DMA flag inconsistent with LOAD/STORE support", c.Name, i)
		}
		for _, src := range pe.Inputs {
			if src < 0 || src >= len(c.PEs) {
				return fmt.Errorf("composition %s: PE %d input %d out of range", c.Name, i, src)
			}
			if src == i {
				return fmt.Errorf("composition %s: PE %d has a self-loop input", c.Name, i)
			}
			if listedBy[src] == i+1 {
				return fmt.Errorf("composition %s: PE %d lists input %d twice", c.Name, i, src)
			}
			listedBy[src] = i + 1
		}
		for op, info := range pe.Ops {
			if info.Duration <= 0 {
				return fmt.Errorf("composition %s: PE %d op %v has non-positive duration", c.Name, i, op)
			}
		}
	}
	if dma > MaxDMAPEs {
		return fmt.Errorf("composition %s: %d DMA PEs exceed the architectural limit of %d", c.Name, dma, MaxDMAPEs)
	}
	if dma == 0 {
		return fmt.Errorf("composition %s: at least one PE needs DMA to reach the host heap", c.Name)
	}
	return nil
}

// MaxRegfileSize returns the largest RF among the PEs.
func (c *Composition) MaxRegfileSize() int {
	m := 0
	for _, pe := range c.PEs {
		if pe.RegfileSize > m {
			m = pe.RegfileSize
		}
	}
	return m
}

// Clone deep-copies the composition so callers can vary op parameters
// (e.g. multiplier latency) without mutating shared instances.
func (c *Composition) Clone() *Composition {
	n := &Composition{Name: c.Name, ContextSize: c.ContextSize, CBoxSlots: c.CBoxSlots}
	for _, pe := range c.PEs {
		cp := &PE{
			Name:        pe.Name,
			Index:       pe.Index,
			RegfileSize: pe.RegfileSize,
			HasDMA:      pe.HasDMA,
			Inputs:      append([]int(nil), pe.Inputs...),
			Ops:         make(map[OpCode]OpInfo, len(pe.Ops)),
		}
		for op, info := range pe.Ops {
			cp.Ops[op] = info
		}
		n.PEs = append(n.PEs, cp)
	}
	return n
}
