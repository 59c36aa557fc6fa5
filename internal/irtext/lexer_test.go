package irtext

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// statements builds a kernel of n assignments, each with a dozen operator
// and delimiter tokens.
func statements(n int) string {
	var b strings.Builder
	b.WriteString("kernel big(array a, in p, inout r) {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\tr = (r + a[%d & 7]) >>> 1 ^ (p << 2);\n", i)
	}
	b.WriteString("}\n")
	return b.String()
}

// lexBytes is the least number of heap bytes lexing all of src allocates,
// over a few tries (a concurrent allocation can only add to a try). It
// runs the token loop the parser pulls from.
func lexBytes(t *testing.T, src string) uint64 {
	t.Helper()
	best := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l := newLexer(src)
		for {
			tok, err := l.next()
			if err != nil {
				t.Fatal(err)
			}
			if tok.kind == tokEOF {
				break
			}
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < best {
			best = d
		}
	}
	return best
}

// TestLexerAllocatesLinearly: twice the source must cost about twice the
// bytes. A lexer that copies the unread source at every operator token
// allocates four times as much.
func TestLexerAllocatesLinearly(t *testing.T) {
	half, full := lexBytes(t, statements(2000)), lexBytes(t, statements(4000))
	if ratio := float64(full) / float64(half); ratio > 2.5 {
		t.Errorf("lexing 4000 statements allocates %d bytes, 2000 statements %d: ratio %.2f, want ≤ 2.5", full, half, ratio)
	}
}
