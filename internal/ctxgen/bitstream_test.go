package ctxgen

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"cgra/internal/arch"
	"cgra/internal/cdfg"
	"cgra/internal/opt"
	"cgra/internal/sched"
	"cgra/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenStream is a fixed, hand-constructed bitstream: 3 words of 70 bits
// (two 64-bit chunks per word) with a recognizable pattern. Changing the
// binary layout changes its encoding — and the golden file diff makes the
// format bump explicit.
func goldenStream() *Bitstream {
	return &Bitstream{
		Width: 70,
		Words: [][]uint64{
			{0xDEADBEEF01234567, 0x2A},
			{0x0000000000000000, 0x00},
			{0xFFFFFFFFFFFFFFFF, 0x3F},
		},
	}
}

// parseWhole decodes data as exactly one bitstream: bytes left over after
// it are an error.
func parseWhole(data []byte) (*Bitstream, error) {
	b, rest, err := ParseBitstream(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d bytes left after the bitstream", len(rest))
	}
	return b, nil
}

func TestBitstreamGoldenFile(t *testing.T) {
	got, err := goldenStream().AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "bitstream.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding diverged from the pinned on-disk format:\n got %x\nwant %x\n"+
			"(an intentional format change must bump BitstreamVersion and regenerate with -update)",
			got, want)
	}
	dec, err := parseWhole(want)
	if err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if !dec.Equal(goldenStream()) {
		t.Fatal("golden file decoded to different contents")
	}
}

// TestParseBitstreamLeavesTail checks that ParseBitstream consumes exactly
// one bitstream and hands back what follows it untouched.
func TestParseBitstreamLeavesTail(t *testing.T) {
	data, err := goldenStream().AppendBinary([]byte("head"))
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, "tail"...)
	dec, rest, err := ParseBitstream(data[len("head"):])
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(goldenStream()) {
		t.Fatal("bitstream after a prefix decoded to different contents")
	}
	if string(rest) != "tail" {
		t.Fatalf("rest = %q, want %q", rest, "tail")
	}
}

// TestBitstreamRoundTripCompiled packs a real compiled workload, encodes
// and decodes every PE's image, and verifies both bit-identity and that the
// decoded streams unpack into the original contexts.
func TestBitstreamRoundTripCompiled(t *testing.T) {
	w, err := workload.ByName("gcd")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	k, err := opt.Apply(w.Kernel, opt.Options{UnrollFactor: 2, CSE: true, ConstFold: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cdfg.Build(k, cdfg.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run(g, comp, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < comp.NumPEs(); pe++ {
		bs, err := prog.PackPE(pe)
		if err != nil {
			t.Fatalf("pack PE %d: %v", pe, err)
		}
		data, err := bs.AppendBinary(nil)
		if err != nil {
			t.Fatalf("encode PE %d: %v", pe, err)
		}
		dec, err := parseWhole(data)
		if err != nil {
			t.Fatalf("decode PE %d: %v", pe, err)
		}
		if !dec.Equal(bs) {
			t.Fatalf("PE %d round trip not bit-identical", pe)
		}
		ctxs, err := prog.UnpackPE(pe, dec)
		if err != nil {
			t.Fatalf("unpack PE %d: %v", pe, err)
		}
		for c, got := range ctxs {
			if got != prog.PE[pe][c] {
				t.Fatalf("PE %d ctx %d: decoded %+v != original %+v", pe, c, got, prog.PE[pe][c])
			}
		}
	}
}

func TestBitstreamDecodeRejectsCorruption(t *testing.T) {
	full, err := goldenStream().AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         {},
		"short header":  full[:10],
		"truncated":     full[:len(full)-5],
		"trailing byte": append(append([]byte{}, full...), 0),
		"bad magic":     append([]byte("XXXX"), full[4:]...),
		"wrong version": append(append([]byte{}, full[:4]...), append([]byte{0xFF, 0x7F}, full[6:]...)...),
	}
	// Implausible width: patch width field to 2^30.
	wide := append([]byte{}, full...)
	wide[8], wide[9], wide[10], wide[11] = 0, 0, 0, 0x40
	cases["implausible width"] = wide
	// A word count the bytes cannot back: patch it to 2^24.
	many := append([]byte{}, full...)
	many[12], many[13], many[14], many[15] = 0, 0, 0, 0x01
	cases["word count beyond input"] = many

	for name, data := range cases {
		if _, err := parseWhole(data); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

// TestPackerFieldsCrossChunks packs random fields of 0–64 bits, many of
// them straddling a 64-bit chunk boundary, and reads each back bit by bit
// and through the unpacker.
func TestPackerFieldsCrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var widths []int
		var values []uint64
		total := 0
		for total < 200 {
			w := rng.Intn(65)
			widths = append(widths, w)
			values = append(values, rng.Uint64())
			total += w
		}
		pk := &packer{bits: make([]uint64, (total+63)/64)}
		for i, w := range widths {
			pk.put(values[i], w)
		}
		u := &unpacker{bits: pk.bits}
		pos := 0
		for i, w := range widths {
			want := values[i]
			if w < 64 {
				want &= 1<<uint(w) - 1
			}
			for b := 0; b < w; b++ {
				if bit := pk.bits[(pos+b)/64] >> uint((pos+b)%64) & 1; bit != want>>uint(b)&1 {
					t.Fatalf("trial %d field %d (%d bits at %d): bit %d packed as %d", trial, i, w, pos, b, bit)
				}
			}
			if got := u.get(w); got != want {
				t.Fatalf("trial %d field %d (%d bits at %d): read %#x, packed %#x", trial, i, w, pos, got, want)
			}
			pos += w
		}
	}
}
