package pipeline

// Artifact is the serializable form of a compiled kernel: exactly the state
// a CGRA needs to replay the kernel — the packed per-PE context-memory
// images, the C-Box and CCU (branch) tables, the live-in/live-out homes and
// the allocation metadata — without any of the compiler's intermediate
// structures (CDFG, schedule, span tree). It is what the paper's tool flow
// would flash into the context memories, plus the host-interface tables.
//
// Artifacts are the value type of the compiled-kernel cache
// (internal/cache): Compiled.Artifact() extracts one after a compile,
// Artifact.Realize() reconstitutes a runnable *Compiled — the realized
// Compiled executes (Run/RunCtx) and reports sizes (UsedContexts,
// MaxRFEntries) but carries no Graph/Schedule/Trace beyond the minimal
// skeleton the simulator consumes.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"cgra/internal/alloc"
	"cgra/internal/arch"
	"cgra/internal/cdfg"
	"cgra/internal/ctxgen"
	"cgra/internal/ir"
	"cgra/internal/sched"
)

// ArtifactVersion is the version of the Artifact type and of its binary
// layout (codec.go). It participates in the cache key, so a layout change
// silently invalidates old cache entries instead of misdecoding them.
const ArtifactVersion = 3

// Home locates one live-in/live-out local's home RF slot.
type Home struct {
	PE   int
	Addr int
}

// Artifact is a self-contained, serializable compiled kernel.
type Artifact struct {
	// Version is the ArtifactVersion the artifact was built with.
	Version int
	// Kernel is the kernel name (post-inlining entry).
	Kernel string
	// Comp is the composition the artifact targets. It is embedded in
	// full: a realized artifact must be executable with no library lookup
	// (degraded and explored compositions have no library name).
	Comp *arch.Composition
	// NumCtx is the number of contexts used.
	NumCtx int
	// Formats are the minimized per-PE context layouts.
	Formats []ctxgen.PEFormat
	// Streams hold the packed context-memory image of each PE.
	Streams []*ctxgen.Bitstream
	// CBox and CCU are the decoded control tables (C-Box condition logic
	// and the branch/jump table).
	CBox []ctxgen.CBoxCtx
	// CCU is the jump table (branch targets per context).
	CCU []ctxgen.CCUCtx
	// CBoxWidth and CCUWidth are the control-word widths.
	CBoxWidth, CCUWidth int
	// Homes maps each live-in/live-out local to its home RF slot.
	Homes map[string]Home
	// LiveIns and LiveOuts list transfer-order locals.
	LiveIns, LiveOuts []string
	// Arrays lists the array parameters in DMA-index order.
	Arrays []string
	// RFUsage and CBoxUsage are the allocation results (per-PE RF
	// pressure, condition-memory slots).
	RFUsage   []int
	CBoxUsage int
}

// Artifact extracts the serializable artifact from a compile result.
func (c *Compiled) Artifact() (*Artifact, error) {
	p := c.Program
	a := &Artifact{
		Version:   ArtifactVersion,
		Kernel:    c.Kernel.Name,
		Comp:      p.Sched.Comp,
		NumCtx:    p.NumCtx,
		Formats:   append([]ctxgen.PEFormat(nil), p.Formats...),
		CBox:      append([]ctxgen.CBoxCtx(nil), p.CBox...),
		CCU:       append([]ctxgen.CCUCtx(nil), p.CCU...),
		CBoxWidth: p.CBoxWidth,
		CCUWidth:  p.CCUWidth,
		Homes:     map[string]Home{},
		LiveIns:   p.Sched.Graph.LiveIns(),
		LiveOuts:  p.Sched.Graph.LiveOuts(),
		Arrays:    append([]string(nil), p.Sched.Graph.Arrays...),
		RFUsage:   append([]int(nil), p.Alloc.RFUsage...),
		CBoxUsage: p.Alloc.CBoxUsage,
	}
	for name, v := range p.Sched.Homes {
		a.Homes[name] = Home{PE: v.PE, Addr: v.Addr}
	}
	for pe := 0; pe < p.Sched.Comp.NumPEs(); pe++ {
		bs, err := p.PackPE(pe)
		if err != nil {
			return nil, fmt.Errorf("pipeline: artifact of %q: %v", c.Kernel.Name, err)
		}
		a.Streams = append(a.Streams, bs)
	}
	return a, nil
}

// Realize reconstructs a runnable Compiled from the artifact: the packed
// context images are unpacked against the embedded composition and wrapped
// in the minimal schedule/graph skeleton the simulator consumes. The
// returned Compiled has no post-optimization Kernel and no compile Trace.
func (a *Artifact) Realize() (*Compiled, error) {
	if a.Version != ArtifactVersion {
		return nil, fmt.Errorf("pipeline: artifact version %d, want %d", a.Version, ArtifactVersion)
	}
	if a.Comp == nil {
		return nil, fmt.Errorf("pipeline: artifact %q has no composition", a.Kernel)
	}
	if err := a.Comp.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: artifact %q: %v", a.Kernel, err)
	}
	n := a.Comp.NumPEs()
	if len(a.Streams) != n || len(a.Formats) != n || len(a.RFUsage) != n {
		return nil, fmt.Errorf("pipeline: artifact %q sized for %d PEs, composition has %d",
			a.Kernel, len(a.Streams), n)
	}
	if len(a.CBox) != a.NumCtx || len(a.CCU) != a.NumCtx {
		return nil, fmt.Errorf("pipeline: artifact %q control tables hold %d/%d entries, want %d",
			a.Kernel, len(a.CBox), len(a.CCU), a.NumCtx)
	}

	// Minimal graph skeleton: live-in/live-out sets and the array table.
	g := &cdfg.Graph{KernelName: a.Kernel, Locals: map[string]*cdfg.Local{}, Arrays: append([]string(nil), a.Arrays...)}
	for _, name := range a.LiveIns {
		g.Locals[name] = &cdfg.Local{Name: name, LiveIn: true}
	}
	for _, name := range a.LiveOuts {
		l := g.Locals[name]
		if l == nil {
			l = &cdfg.Local{Name: name}
			g.Locals[name] = l
		}
		l.LiveOut = true
	}
	s := &sched.Schedule{
		Comp:   a.Comp,
		Graph:  g,
		Length: a.NumCtx,
		Homes:  map[string]*sched.Value{},
	}
	for name, h := range a.Homes {
		if h.PE < 0 || h.PE >= n {
			return nil, fmt.Errorf("pipeline: artifact %q: home of %q on PE %d out of range", a.Kernel, name, h.PE)
		}
		s.Homes[name] = &sched.Value{PE: h.PE, Addr: h.Addr, Local: name, IsHome: true, Pinned: true, Def: -1}
	}
	prog := &ctxgen.Program{
		Sched:     s,
		Alloc:     &alloc.Result{RFUsage: append([]int(nil), a.RFUsage...), CBoxUsage: a.CBoxUsage},
		NumCtx:    a.NumCtx,
		PE:        make([][]ctxgen.PECtx, n),
		CBox:      append([]ctxgen.CBoxCtx(nil), a.CBox...),
		CCU:       append([]ctxgen.CCUCtx(nil), a.CCU...),
		Formats:   append([]ctxgen.PEFormat(nil), a.Formats...),
		CBoxWidth: a.CBoxWidth,
		CCUWidth:  a.CCUWidth,
	}
	for pe := 0; pe < n; pe++ {
		ctxs, err := prog.UnpackPE(pe, a.Streams[pe])
		if err != nil {
			return nil, fmt.Errorf("pipeline: artifact %q: %v", a.Kernel, err)
		}
		if len(ctxs) != a.NumCtx {
			return nil, fmt.Errorf("pipeline: artifact %q: PE %d image holds %d contexts, want %d",
				a.Kernel, pe, len(ctxs), a.NumCtx)
		}
		prog.PE[pe] = ctxs
	}
	c := &Compiled{Schedule: s, Graph: g, Program: prog}
	// Warm the engine eagerly: a realized artifact exists to be executed
	// (the daemon's warm-cache serving path), so the one-time predecode
	// happens here rather than on the first request. A predecode error is
	// memoized and surfaces on the first run.
	_, _ = c.Engine()
	return c, nil
}

// EncodeArtifact writes the artifact's binary encoding (see codec.go).
func EncodeArtifact(w io.Writer, a *Artifact) error {
	buf, err := a.AppendBinary(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// DecodeArtifact reads one artifact previously written by EncodeArtifact;
// r must hold nothing after it.
func DecodeArtifact(r io.Reader) (*Artifact, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("pipeline: decode artifact: %w", err)
	}
	a := &Artifact{}
	if err := a.UnmarshalBinary(buf.Bytes()); err != nil {
		return nil, err
	}
	return a, nil
}

// Key computes the content-addressed cache key of one compilation: the
// hex-encoded SHA-256 over the canonical kernel digest, the structural
// composition digest, every semantics-affecting pipeline option, and the
// artifact format version. The options are hashed as the compile runs with
// them (backend resolved, unroll forced to 1 under modulo, a zero
// Sched.MaxCycles as sched.DefaultMaxCycles), so two spellings of one
// compile share a key. Observability hooks (Obs, Sched.Span,
// Sched.Explain) do not influence the generated artifact and are excluded.
func Key(k *ir.Kernel, comp *arch.Composition, o Options) string {
	return KeyDigest(k, comp.Digest(), o)
}

// KeyDigest is Key for a caller that already holds the composition's
// Digest: a long-lived target is digested once, not on every request.
func KeyDigest(k *ir.Kernel, compDigest string, o Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "cgra-artifact v%d ctxgen v%d\n", ArtifactVersion, ctxgen.BitstreamVersion)
	fmt.Fprintf(h, "kernel %s\n", k.Digest())
	fmt.Fprintf(h, "comp %s\n", compDigest)
	// Options resolveBackend rejects (auto, an unknown backend) compile
	// nothing and are hashed as given.
	if r, err := resolveBackend(o); err == nil {
		o = r
	}
	backend := o.Backend
	if backend == "" {
		backend = o.Sched.Backend
	}
	maxCycles := o.Sched.MaxCycles
	if maxCycles == 0 {
		maxCycles = sched.DefaultMaxCycles
	}
	fmt.Fprintf(h, "opts backend=%s unroll=%d cse=%t constfold=%t branchallifs=%t noattr=%t nofuse=%t maxcycles=%d\n",
		backend, o.UnrollFactor, o.CSE, o.ConstFold, o.Build.BranchAllIfs,
		o.Sched.NoAttraction, o.Sched.NoFusing, maxCycles)
	return hex.EncodeToString(h.Sum(nil))
}
