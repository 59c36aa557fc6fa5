// Package fault defines deterministic, seeded hardware fault models for
// the CGRA and the injector the simulator uses to apply them. Irregular
// compositions — the paper's central object — arise in practice because
// arrays lose processing elements and links over their lifetime; this
// package makes those losses reproducible events instead of hypotheticals.
//
// Three fault classes are modelled:
//
//   - permanent PE failure ("pe:N"): the PE's datapath dies; every result
//     it produces (ALU values, compare statuses, DMA data) is corrupted
//     from the fault's activation cycle onward, in every later run;
//   - broken interconnect link ("link:A-B"): values routed from PE A to
//     PE B over the direct link arrive corrupted;
//   - transient context/register bit upset ("bit:N"): a single-event upset
//     flips one bit of one register-file commit on PE N, exactly once.
//
// All randomness (activation cycle, corruption mask, flipped bit) is drawn
// from a seeded source at construction time, so a Plan with a fixed seed
// reproduces the identical fault behaviour on every run — the property the
// recovery tests and the cgrasim -fault flag depend on.
package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
)

// Kind classifies a fault.
type Kind int

// Fault kinds.
const (
	// PermanentPE is a hard failure of one processing element.
	PermanentPE Kind = iota
	// BrokenLink is a hard failure of one directed interconnect link.
	BrokenLink
	// TransientBit is a single-event upset flipping one RF bit once.
	TransientBit
)

func (k Kind) String() string {
	switch k {
	case PermanentPE:
		return "pe"
	case BrokenLink:
		return "link"
	case TransientBit:
		return "bit"
	}
	return "?"
}

// Fault names one fault site. PE indices are always *physical* indices of
// the original composition; degraded compositions translate their renumbered
// PEs back through arch.Degraded before consulting the injector.
type Fault struct {
	Kind Kind
	// PE is the afflicted element (PermanentPE, TransientBit).
	PE int
	// Src, Dst are the link endpoints (BrokenLink); data flows Src→Dst.
	Src, Dst int
}

func (f Fault) String() string {
	if f.Kind == BrokenLink {
		return fmt.Sprintf("link:%d-%d", f.Src, f.Dst)
	}
	return fmt.Sprintf("%s:%d", f.Kind, f.PE)
}

// ParseSpec parses one fault spec: "pe:3", "link:0-2" or "bit:1".
func ParseSpec(s string) (Fault, error) {
	kind, rest, ok := strings.Cut(strings.TrimSpace(s), ":")
	if !ok {
		return Fault{}, fmt.Errorf("fault: malformed spec %q (want kind:site)", s)
	}
	switch kind {
	case "pe", "bit":
		n, err := strconv.Atoi(rest)
		if err != nil || n < 0 {
			return Fault{}, fmt.Errorf("fault: bad PE index in %q", s)
		}
		k := PermanentPE
		if kind == "bit" {
			k = TransientBit
		}
		return Fault{Kind: k, PE: n}, nil
	case "link":
		a, b, ok := strings.Cut(rest, "-")
		if !ok {
			return Fault{}, fmt.Errorf("fault: malformed link spec %q (want link:src-dst)", s)
		}
		src, err1 := strconv.Atoi(a)
		dst, err2 := strconv.Atoi(b)
		if err1 != nil || err2 != nil || src < 0 || dst < 0 || src == dst {
			return Fault{}, fmt.Errorf("fault: bad link endpoints in %q", s)
		}
		return Fault{Kind: BrokenLink, Src: src, Dst: dst}, nil
	}
	return Fault{}, fmt.Errorf("fault: unknown fault kind %q (have pe, link, bit)", kind)
}

// ParseSpecs parses a list of specs.
func ParseSpecs(specs []string) ([]Fault, error) {
	var out []Fault
	for _, s := range specs {
		f, err := ParseSpec(s)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// Plan is a reproducible fault scenario.
type Plan struct {
	// Seed determines activation cycles and corruption patterns.
	Seed int64
	// Window bounds the activation cycle of each fault within the first
	// injected run (default 64: faults strike early, so even short kernels
	// expose them).
	Window int64
	// Faults lists the fault sites.
	Faults []Fault
}

// armed is one fault plus its pre-drawn manifestation parameters.
type armed struct {
	Fault
	// activation is the cycle (within the first run) the fault strikes.
	activation int64
	// mask is the value corruption pattern (never zero, so XOR always
	// changes the value).
	mask int32
	// bit is the flipped bit position (TransientBit).
	bit uint
	// site matches a permanent fault to a produced value: (PE, -1), (Src,
	// Dst) for a BrokenLink, or (-1, -1), matching none, for a transient.
	site [2]int
	// fired marks a spent transient.
	fired bool
	// manifested records that the fault corrupted at least one value.
	manifested bool
}

// Injector applies a plan during simulation. All methods are deterministic:
// the random parameters are drawn once in NewInjector.
//
// An Injector is safe for concurrent use: one armed plan may be shared by
// several simulator runs executing in parallel (the online-synthesis system
// invokes kernels concurrently). Determinism then holds per run — which
// faults are active at which cycle — while the cross-run bookkeeping
// (injection counts, manifestation flags, spent transients) is serialized
// by an internal mutex.
type Injector struct {
	mu     sync.Mutex
	faults []*armed
	runs   int64 // completed+current BeginRun calls
	count  int64 // corruption events applied
}

// NewInjector arms a plan against a composition with numPEs physical PEs.
func NewInjector(plan Plan, numPEs int) (*Injector, error) {
	window := plan.Window
	if window <= 0 {
		window = 64
	}
	rng := rand.New(rand.NewSource(plan.Seed))
	in := &Injector{}
	for _, f := range plan.Faults {
		site := [2]int{-1, -1}
		switch f.Kind {
		case PermanentPE, TransientBit:
			if f.PE < 0 || f.PE >= numPEs {
				return nil, fmt.Errorf("fault: %s out of range (composition has %d PEs)", f, numPEs)
			}
			if f.Kind == PermanentPE {
				site[0] = f.PE
			}
		case BrokenLink:
			if f.Src < 0 || f.Src >= numPEs || f.Dst < 0 || f.Dst >= numPEs {
				return nil, fmt.Errorf("fault: %s out of range (composition has %d PEs)", f, numPEs)
			}
			site = [2]int{f.Src, f.Dst}
		}
		in.faults = append(in.faults, &armed{
			Fault:      f,
			activation: rng.Int63n(window),
			mask:       int32(rng.Uint32() | 1),
			bit:        uint(rng.Intn(32)),
			site:       site,
		})
	}
	return in, nil
}

// BeginRun marks the start of one simulated invocation. Permanent faults
// that activated during an earlier run stay active from cycle 0 of every
// later run.
func (in *Injector) BeginRun() {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.runs++
	in.mu.Unlock()
}

// active reports whether a permanent fault has struck by the given cycle of
// the current run.
func (in *Injector) active(a *armed, cycle int64) bool {
	if in.runs > 1 {
		return true
	}
	return cycle >= a.activation
}

func (in *Injector) hit(a *armed) {
	a.manifested = true
	in.count++
}

// permanent applies to one produced value every permanent fault at site
// (see armed.site) that is active at cycle: it marks them manifested and
// returns how many applied and the XOR of their masks.
func (in *Injector) permanent(site [2]int, cycle int64) (n int, mask int32) {
	if in == nil {
		return 0, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, a := range in.faults {
		if a.site == site && in.active(a, cycle) {
			n++
			mask ^= a.mask
			in.hit(a)
		}
	}
	return n, mask
}

// CorruptALU corrupts a result produced by physical PE pe (ALU value, DMA
// load data or DMA store data). The second return reports whether a fault
// applied.
func (in *Injector) CorruptALU(pe int, cycle int64, v int32) (int32, bool) {
	n, mask := in.permanent([2]int{pe, -1}, cycle)
	return v ^ mask, n > 0
}

// CorruptStatus corrupts a compare status produced by physical PE pe: each
// fault that applies flips it.
func (in *Injector) CorruptStatus(pe int, cycle int64, s bool) (bool, bool) {
	n, _ := in.permanent([2]int{pe, -1}, cycle)
	return s != (n%2 == 1), n > 0
}

// CorruptRoute corrupts a value routed over the physical link src→dst.
func (in *Injector) CorruptRoute(src, dst int, cycle int64, v int32) (int32, bool) {
	n, mask := in.permanent([2]int{src, dst}, cycle)
	return v ^ mask, n > 0
}

// CorruptWrite applies a pending transient bit upset to a register-file
// commit on physical PE pe. A transient fires exactly once, at the first
// eligible commit at or after its activation cycle.
func (in *Injector) CorruptWrite(pe int, cycle int64, v int32) (int32, bool) {
	if in == nil {
		return v, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out, applied := v, false
	for _, a := range in.faults {
		if a.Kind != TransientBit || a.PE != pe || a.fired {
			continue
		}
		if in.runs > 1 || cycle >= a.activation {
			out ^= int32(1) << a.bit
			a.fired = true
			in.hit(a)
			applied = true
		}
	}
	return out, applied
}

// Injections returns the number of corruption events applied so far.
func (in *Injector) Injections() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.count
}

// Manifested lists the faults that corrupted at least one value.
func (in *Injector) Manifested() []Fault {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []Fault
	for _, a := range in.faults {
		if a.manifested {
			out = append(out, a.Fault)
		}
	}
	return out
}

// ManifestedPermanent lists manifested faults that require masking hardware
// (permanent PE and link failures); spent transients recover by retrying.
func (in *Injector) ManifestedPermanent() []Fault {
	var out []Fault
	for _, f := range in.Manifested() {
		if f.Kind != TransientBit {
			out = append(out, f)
		}
	}
	return out
}
