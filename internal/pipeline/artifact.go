package pipeline

// Artifact is the serializable form of a compiled kernel: its
// ctxgen.Program — the per-PE contexts, the C-Box and CCU (branch) tables,
// the live-in/live-out homes and the allocation metadata — and none of the
// compiler's intermediate structures (CDFG, schedule, span tree). It is
// what the paper's tool flow would flash into the context memories, plus
// the host-interface tables.
//
// Artifacts are the value type of the compiled-kernel cache
// (internal/cache). Compiled.Artifact() wraps the compiled Program without
// copying it; the codec (codec.go) writes it under ArtifactVersion, packing
// the context images, and at decode time checks the program, derives its
// context formats and unpacks the images; Artifact.Realize() returns a
// runnable *Compiled around the same Program, which executes (Run/RunCtx)
// and reports sizes (UsedContexts, MaxRFEntries) but carries no Kernel,
// Graph, Schedule or Trace.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"cgra/internal/arch"
	"cgra/internal/ctxgen"
	"cgra/internal/ir"
	"cgra/internal/sched"
)

// ArtifactVersion is the version of the artifact's binary layout
// (codec.go). It exists only on the wire and in the cache key, so a layout
// change silently invalidates old cache entries instead of misdecoding
// them; an Artifact in memory is always current.
const ArtifactVersion = 4

// Artifact is a self-contained, serializable compiled kernel.
type Artifact struct {
	// Program is the kernel's configuration. It embeds its composition in
	// full, so a realized artifact is executable with no library lookup
	// (degraded and explored compositions have no library name). It is
	// shared, never copied: nothing may write it.
	Program *ctxgen.Program
}

// Artifact wraps the compiled program as a serializable artifact.
func (c *Compiled) Artifact() (*Artifact, error) {
	return &Artifact{Program: c.Program}, nil
}

// Realize returns a runnable Compiled around the artifact's program, with
// its engine predecoded. The returned Compiled has no post-optimization
// Kernel, Graph, Schedule or compile Trace.
func (a *Artifact) Realize() (*Compiled, error) {
	if a.Program == nil {
		return nil, fmt.Errorf("pipeline: artifact holds no program")
	}
	c := &Compiled{Program: a.Program}
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
	fmt.Fprintf(h, "cgra-artifact v%d\n", ArtifactVersion)
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
