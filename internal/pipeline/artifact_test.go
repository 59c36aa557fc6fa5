package pipeline

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"maps"
	"os"
	"reflect"
	"slices"
	"testing"

	"cgra/internal/arch"
	"cgra/internal/ctxgen"
	"cgra/internal/ir"
	"cgra/internal/sched"
	"cgra/internal/workload"
)

// roundTripComps are the compositions TestArtifactRoundTrip covers: the
// five evaluated arrays and "9 PEs" with a dead PE and a cut link.
func roundTripComps(t *testing.T) []*arch.Composition {
	var comps []*arch.Composition
	for _, name := range []string{"4 PEs", "9 PEs", "16 PEs", "8 PEs B", "8 PEs F"} {
		comp, err := arch.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, comp)
	}
	d, err := arch.Degrade(comps[1], map[int]bool{1: true}, map[[2]int]bool{{3, 4}: true})
	if err != nil {
		t.Fatal(err)
	}
	return append(comps, d.Comp)
}

// TestArtifactRoundTrip compiles every library kernel on every evaluated
// composition and on a degraded one, serializes each to an artifact,
// checks the decoded artifact equals the encoded one field for field,
// realizes it, and proves the realized program produces
// exactly the live-outs, heap, cycles and energy of the directly compiled
// one (which the reference interpreter in turn validates).
func TestArtifactRoundTrip(t *testing.T) {
	for _, comp := range roundTripComps(t) {
		for _, gc := range libraryGoldenCases(t) {
			name := gc.name + "@" + comp.Name
			c, err := Compile(gc.kernel, comp, Defaults())
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			art, err := c.Artifact()
			if err != nil {
				t.Fatalf("%s: artifact: %v", name, err)
			}
			var buf bytes.Buffer
			if err := EncodeArtifact(&buf, art); err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			dec, err := DecodeArtifact(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			// Every field must survive, including one the codec does not
			// know yet: a field added to Artifact, Program or anything they
			// hold fails here until codec.go writes or derives it (the
			// formats and control widths are derived at decode, and must
			// equal the compiled ones). The contexts are compared as packed
			// images: a field of a disabled path (the value's address
			// encodeSrc leaves in a routed operand's AAddr) does not survive
			// packing.
			if d := firstDiff("Artifact", reflect.ValueOf(withoutContexts(art)), reflect.ValueOf(withoutContexts(dec))); d != "" {
				t.Fatalf("%s: decoded artifact differs from the encoded one at %s", name, d)
			}
			want, err := art.Program.AppendImages(nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Program.AppendImages(nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(dec.Program.PE) != len(art.Program.PE) || !bytes.Equal(got, want) {
				t.Fatalf("%s: the %d PE streams pack to other images after the round trip", name, len(art.Program.PE))
			}
			rc, err := dec.Realize()
			if err != nil {
				t.Fatalf("%s: realize: %v", name, err)
			}
			if rc.UsedContexts() != c.UsedContexts() || rc.MaxRFEntries() != c.MaxRFEntries() {
				t.Fatalf("%s: realized artifact uses %d contexts and %d RF entries, original %d and %d",
					name, rc.UsedContexts(), rc.MaxRFEntries(), c.UsedContexts(), c.MaxRFEntries())
			}
			directHost, realizedHost := gc.host.Clone(), gc.host.Clone()
			direct, err := c.Run(gc.args, directHost)
			if err != nil {
				t.Fatalf("%s: direct run: %v", name, err)
			}
			realized, err := rc.Run(gc.args, realizedHost)
			if err != nil {
				t.Fatalf("%s: realized run: %v", name, err)
			}
			if realized.RunCycles != direct.RunCycles || realized.TransferCycles != direct.TransferCycles {
				t.Fatalf("%s: realized cycles (%d,%d) != direct (%d,%d)", name,
					realized.RunCycles, realized.TransferCycles, direct.RunCycles, direct.TransferCycles)
			}
			if realized.Energy != direct.Energy {
				t.Fatalf("%s: realized energy %g != direct %g", name, realized.Energy, direct.Energy)
			}
			if err := ir.Compare(direct.LiveOuts, directHost, realized.LiveOuts, realizedHost); err != nil {
				t.Fatalf("%s: realized run differs from the direct one: %v", name, err)
			}
			// The realized run must survive the reference check, too.
			if _, err := CheckAgainstInterpreter(gc.kernel, rc, gc.args, gc.host); err != nil {
				t.Fatalf("%s: realized artifact fails the correctness oracle: %v", name, err)
			}
		}
	}
}

// withoutContexts returns a copy of a whose program has no PE streams.
func withoutContexts(a *Artifact) *Artifact {
	c, p := *a, *a.Program
	p.PE = nil
	c.Program = &p
	return &c
}

// firstDiff compares a and b like reflect.DeepEqual, except that a nil and
// an empty slice or map are equal (the codec writes both as a zero count),
// and returns the path of the first difference, or "" if there is none.
func firstDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path
			}
			return ""
		}
		return firstDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if d := firstDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (length %d vs %d)", path, a.Len(), b.Len())
		}
		for i := range a.Len() {
			if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (size %d vs %d)", path, a.Len(), b.Len())
		}
		for it := a.MapRange(); it.Next(); {
			p := fmt.Sprintf("%s[%v]", path, it.Key())
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return p + " (missing)"
			}
			if d := firstDiff(p, it.Value(), bv); d != "" {
				return d
			}
		}
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			return fmt.Sprintf("%s (%v vs %v)", path, a, b)
		}
	}
	return ""
}

// encodedArtifact compiles k for comp and returns its artifact's encoding.
func encodedArtifact(tb testing.TB, k *ir.Kernel, comp *arch.Composition) []byte {
	tb.Helper()
	c, err := Compile(k, comp, Defaults())
	if err != nil {
		tb.Fatal(err)
	}
	art, err := c.Artifact()
	if err != nil {
		tb.Fatal(err)
	}
	data, err := art.AppendBinary(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// artifactGolden pins the artifact layout: fir compiled on "9 PEs".
const artifactGolden = "testdata/artifact.golden"

var updateArtifact = flag.Bool("update-artifact", false, "rewrite "+artifactGolden+" from a fresh compile of fir on 9 PEs")

// TestArtifactGolden decodes the pinned artifact and encodes it again: the
// bytes must not change. A layout change bumps ArtifactVersion and
// regenerates the file (go test ./internal/pipeline -run
// TestArtifactGolden -update-artifact) in the same diff. The pinned
// artifact must also still realize into a correct fir.
func TestArtifactGolden(t *testing.T) {
	w := workload.FIR()
	if *updateArtifact {
		comp, err := arch.ByName("9 PEs")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(artifactGolden, encodedArtifact(t, w.Kernel, comp), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(artifactGolden)
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodeArtifact(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("decode pinned artifact: %v\n(an intentional layout change bumps ArtifactVersion and regenerates with -update-artifact)", err)
	}
	var buf bytes.Buffer
	if err := EncodeArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("re-encoding the pinned artifact changed its bytes (%d, pinned %d)\n"+
			"(an intentional layout change bumps ArtifactVersion and regenerates with -update-artifact)",
			buf.Len(), len(want))
	}
	c, err := a.Realize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckAgainstInterpreter(w.Kernel, c, w.Args(w.DefaultSize), w.Host(w.DefaultSize)); err != nil {
		t.Fatalf("pinned artifact no longer runs fir correctly: %v", err)
	}
}

// TestDecodeArtifactRejectsCorruption: every truncation, a trailing byte,
// a bad magic, another version, a count the input cannot back and a
// program whose images or allocation do not fit its composition are
// errors.
func TestDecodeArtifactRejectsCorruption(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(workload.GCD().Kernel, comp, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	// encoded returns the encoding of the compiled program after mutate
	// damages a copy of it.
	encoded := func(mutate func(p *ctxgen.Program)) []byte {
		p := *c.Program
		alloc := *p.Alloc
		p.Alloc = &alloc
		mutate(&p)
		data, err := (&Artifact{Program: &p}).AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	good := encoded(func(*ctxgen.Program) {})
	decode := func(data []byte) error { return new(Artifact).UnmarshalBinary(data) }
	if err := decode(good); err != nil {
		t.Fatal(err)
	}
	for n := range good {
		if decode(good[:n]) == nil {
			t.Fatalf("decode accepted the first %d of %d bytes", n, len(good))
		}
	}
	header := func(version int) []byte {
		return binary.AppendVarint(append([]byte(nil), artifactMagic...), int64(version))
	}
	body := good[len(header(ArtifactVersion)):]
	for name, data := range map[string][]byte{
		"trailing byte": append(append([]byte(nil), good...), 0),
		"bad magic":     append([]byte("XXXX"), good[len(artifactMagic):]...),
		"other version": append(header(ArtifactVersion+1), body...),
		"huge count":    binary.AppendUvarint(header(ArtifactVersion), 1<<40),
		// The control tables back NumCtx, but the images hold one context.
		"contexts beyond the images": encoded(func(p *ctxgen.Program) {
			p.PE = slices.Clone(p.PE)
			for pe := range p.PE {
				p.PE[pe] = p.PE[pe][:1]
			}
		}),
		"image count": encoded(func(p *ctxgen.Program) { p.PE = p.PE[:len(p.PE)-1] }),
		"RF-usage count": encoded(func(p *ctxgen.Program) {
			p.Alloc.RFUsage = p.Alloc.RFUsage[:len(p.Alloc.RFUsage)-1]
		}),
	} {
		if decode(data) == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
	// The C-Box fields are int32 too: a wider value is refused, not wrapped.
	d := &decoder{data: binary.AppendVarint(nil, 1<<40)}
	if d.int32(); d.err == nil {
		t.Error("decoder took a 41-bit integer for a 32-bit C-Box field")
	}
}

// FuzzDecodeArtifact feeds arbitrary bytes to the artifact decoder, seeded
// with every library kernel on "9 PEs" and "8 PEs F" and truncations of
// them. The decoder must never panic, and anything it accepts must survive
// a re-encode and decode unchanged.
func FuzzDecodeArtifact(f *testing.F) {
	for _, name := range []string{"9 PEs", "8 PEs F"} {
		comp, err := arch.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, gc := range libraryGoldenCases(f) {
			data := encodedArtifact(f, gc.kernel, comp)
			for _, n := range []int{len(data), len(data) - 1, len(data) / 2, len(artifactMagic), 0} {
				f.Add(data[:n])
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeArtifact(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeArtifact(&buf, a); err != nil {
			t.Fatalf("decoded artifact does not encode: %v", err)
		}
		b, err := DecodeArtifact(&buf)
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatal("decode(encode(decode(x))) differs from decode(x)")
		}
	})
}

// TestArtifactRealizeRejectsSkew: an artifact that is not a runnable
// program of this build is refused on its way from a cache to a realized
// kernel — by the encoder when there is nothing to encode, and by the
// decoder when the tables do not fit the composition. (An encoding of
// another ArtifactVersion is refused by the decoder too; see
// TestDecodeArtifactRejectsCorruption.)
func TestArtifactRealizeRejectsSkew(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("gcd")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(w.Kernel, comp, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	// refusal realizes a in memory, then encodes, decodes and realizes it,
	// and names the first step that refuses it ("" if none does).
	refusal := func(a *Artifact) string {
		if _, err := a.Realize(); err != nil {
			return "realize"
		}
		var buf bytes.Buffer
		if err := EncodeArtifact(&buf, a); err != nil {
			return "encode"
		}
		dec, err := DecodeArtifact(&buf)
		if err != nil {
			return "decode"
		}
		if _, err := dec.Realize(); err != nil {
			return "realize"
		}
		return ""
	}
	for name, tc := range map[string]struct {
		mutate    func(*Artifact)
		refusedBy string
	}{
		"nil composition":  {func(a *Artifact) { a.Program.Comp = nil }, "encode"},
		"missing PE image": {func(a *Artifact) { a.Program.PE = a.Program.PE[:len(a.Program.PE)-1] }, "decode"},
		"table mismatch":   {func(a *Artifact) { a.Program.CBox = a.Program.CBox[:0] }, "decode"},
		"home range": {func(a *Artifact) {
			a.Program.Homes = maps.Clone(a.Program.Homes)
			a.Program.Homes["bad"] = ctxgen.Home{PE: 999}
		}, "decode"},
	} {
		// Damage a copy: the compiled program is shared and must stay
		// intact for the next case.
		p := *c.Program
		a := &Artifact{Program: &p}
		tc.mutate(a)
		if got := refusal(a); got != tc.refusedBy {
			t.Errorf("%s: refused by %q, want %q", name, got, tc.refusedBy)
		}
	}
	if got := refusal(&Artifact{Program: c.Program}); got != "" {
		t.Errorf("the undamaged artifact is refused by %s", got)
	}
}

func TestKeyStableAndDiscriminating(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	other, err := arch.ByName("16 PEs")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("fir")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := workload.ByName("gcd")
	if err != nil {
		t.Fatal(err)
	}
	base := Key(w.Kernel, comp, Defaults())
	if base != Key(w.Kernel, comp, Defaults()) {
		t.Fatal("key not stable across calls")
	}
	// Observability options must not influence the key.
	o := Defaults()
	o.Obs = nil
	withObs := Defaults()
	if Key(w.Kernel, comp, o) != Key(w.Kernel, comp, withObs) {
		t.Fatal("Obs field leaked into the key")
	}
	distinct := map[string]string{
		"other kernel": Key(w2.Kernel, comp, Defaults()),
		"other comp":   Key(w.Kernel, other, Defaults()),
		"no unroll":    Key(w.Kernel, comp, Options{UnrollFactor: 1, CSE: true, ConstFold: true}),
		"no cse":       Key(w.Kernel, comp, Options{UnrollFactor: 2, ConstFold: true}),
	}
	seen := map[string]string{base: "base"}
	for what, k := range distinct {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s", what, prev)
		}
		seen[k] = what
	}
}

// TestKeyHashesResolvedOptions: options that compile to the same artifact
// share a key. The modulo backend forces unroll 1, and a zero
// Sched.MaxCycles schedules with sched.DefaultMaxCycles.
func TestKeyHashesResolvedOptions(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("dot")
	if err != nil {
		t.Fatal(err)
	}
	modulo := Defaults()
	modulo.Backend = sched.BackendModulo
	moduloU1 := modulo
	moduloU1.UnrollFactor = 1
	horizon := Defaults()
	horizon.Sched.MaxCycles = sched.DefaultMaxCycles
	for _, c := range []struct {
		what string
		a, b Options
	}{
		{"modulo unroll 2 vs 1", modulo, moduloU1},
		{"MaxCycles 0 vs default", Defaults(), horizon},
	} {
		if ka, kb := Key(w.Kernel, comp, c.a), Key(w.Kernel, comp, c.b); ka != kb {
			t.Errorf("%s: keys differ (%s vs %s)", c.what, ka, kb)
		}
		arts := make([][]byte, 2)
		for i, o := range []Options{c.a, c.b} {
			cc, err := Compile(w.Kernel, comp, o)
			if err != nil {
				t.Fatal(err)
			}
			a, err := cc.Artifact()
			if err != nil {
				t.Fatal(err)
			}
			if arts[i], err = a.AppendBinary(nil); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(arts[0], arts[1]) {
			t.Errorf("%s: artifacts differ, so the keys must too", c.what)
		}
	}
}
