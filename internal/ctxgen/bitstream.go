package ctxgen

// Binary serialization of context-memory images. This is the on-disk
// artifact format of the compiled-kernel cache: a Bitstream written today
// must decode bit-identically forever, so the layout is fixed, versioned
// and pinned by a golden-file test (bitstream_test.go). Bump
// BitstreamVersion — an explicit, reviewable diff — whenever the layout
// changes.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "CGBS"
//	4       2     format version (currently 1)
//	6       2     reserved (zero)
//	8       4     word width in bits
//	12      4     number of words (contexts)
//	16      ...   words × ceil(width/64) uint64 chunks, LSB-first
//
// The compiled-kernel artifact (pipeline.EncodeArtifact) embeds its images
// in this layout through AppendBinary and ParseBitstream.

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// BitstreamVersion is the serialization format version written by AppendBinary.
const BitstreamVersion = 1

var bitstreamMagic = [4]byte{'C', 'G', 'B', 'S'}

// bitstreamHeader is the size of the fixed header before the words.
const bitstreamHeader = 16

// chunksPerWord is the number of 64-bit chunks backing one context word.
func (b *Bitstream) chunksPerWord() int { return (b.Width + 63) / 64 }

// AppendBinary appends the bitstream in the fixed binary format to dst.
func (b *Bitstream) AppendBinary(dst []byte) ([]byte, error) {
	if b.Width <= 0 {
		return dst, fmt.Errorf("ctxgen: cannot encode bitstream with width %d", b.Width)
	}
	chunks := b.chunksPerWord()
	dst = append(dst, bitstreamMagic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, BitstreamVersion)
	dst = binary.LittleEndian.AppendUint16(dst, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.Width))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Words)))
	for i, word := range b.Words {
		if len(word) != chunks {
			return dst, fmt.Errorf("ctxgen: word %d has %d chunks, width %d needs %d",
				i, len(word), b.Width, chunks)
		}
		for _, c := range word {
			dst = binary.LittleEndian.AppendUint64(dst, c)
		}
	}
	return dst, nil
}

// Sanity bounds for decoding: far beyond any real composition, tight
// enough that corrupt headers cannot drive huge allocations.
const (
	maxBitstreamWidth = 1 << 20
	maxBitstreamWords = 1 << 24
)

// ParseBitstream decodes the bitstream at the front of data and returns
// the bytes after it. Corrupt or truncated input yields an error, never a
// partially valid stream, and it never allocates more than data can fill:
// a count the remaining bytes cannot back is an error.
func ParseBitstream(data []byte) (*Bitstream, []byte, error) {
	if len(data) < bitstreamHeader {
		return nil, nil, fmt.Errorf("ctxgen: bitstream header: %d of %d bytes", len(data), bitstreamHeader)
	}
	if !bytes.Equal(data[0:4], bitstreamMagic[:]) {
		return nil, nil, fmt.Errorf("ctxgen: bad bitstream magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != BitstreamVersion {
		return nil, nil, fmt.Errorf("ctxgen: bitstream format version %d, want %d", v, BitstreamVersion)
	}
	width := int(binary.LittleEndian.Uint32(data[8:12]))
	words := int(binary.LittleEndian.Uint32(data[12:16]))
	if width <= 0 || width > maxBitstreamWidth {
		return nil, nil, fmt.Errorf("ctxgen: implausible bitstream width %d", width)
	}
	if words > maxBitstreamWords {
		return nil, nil, fmt.Errorf("ctxgen: implausible bitstream word count %d", words)
	}
	b := &Bitstream{Width: width}
	chunks := b.chunksPerWord()
	body := words * 8 * chunks
	data = data[bitstreamHeader:]
	if len(data) < body {
		return nil, nil, fmt.Errorf("ctxgen: bitstream of %d words needs %d bytes, %d left", words, body, len(data))
	}
	// All words share one backing array.
	all := make([]uint64, words*chunks)
	for i := range all {
		all[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	b.Words = make([][]uint64, words)
	for i := range b.Words {
		b.Words[i] = all[i*chunks : (i+1)*chunks : (i+1)*chunks]
	}
	return b, data[body:], nil
}

// Equal reports whether two bitstreams are bit-identical.
func (b *Bitstream) Equal(o *Bitstream) bool {
	if b.Width != o.Width || len(b.Words) != len(o.Words) {
		return false
	}
	for i := range b.Words {
		if len(b.Words[i]) != len(o.Words[i]) {
			return false
		}
		for c := range b.Words[i] {
			if b.Words[i][c] != o.Words[i][c] {
				return false
			}
		}
	}
	return true
}
