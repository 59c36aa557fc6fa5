package ctxgen

import (
	"math/rand"
	"testing"

	"cgra/internal/alloc"
	"cgra/internal/arch"
)

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

// TestReadImagesRefusesWideRF: an allocation whose RF usage sizes address
// fields past 31 bits is refused, since the decoded fields are int32 and
// would wrap. The images themselves would be long enough.
func TestReadImagesRefusesWideRF(t *testing.T) {
	comp, err := arch.HomogeneousMesh(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := &Program{Comp: comp, NumCtx: 1, Alloc: &alloc.Result{RFUsage: []int{1 << 40, 1, 1, 1}}}
	if _, err := p.ReadImages(make([]byte, 4096)); err == nil {
		t.Fatal("ReadImages accepted an RF usage of 2^40")
	}
	p.Alloc.RFUsage[0] = 1
	if _, err := p.ReadImages(make([]byte, 4096)); err != nil {
		t.Fatalf("the same images with an RF usage of 1: %v", err)
	}
}
