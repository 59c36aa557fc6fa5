// Package irtext provides a textual front end for the kernel IR, so kernels
// can be written as source strings instead of builder calls. The language is
// a minimal C/Java-like subset matching what the paper's bytecode front end
// can express: 32-bit integer scalars, array parameters, assignments,
// if/else, while, for, and the CGRA-supported operator set (no division).
package irtext

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokPunct // operators and delimiters
)

type token struct {
	kind tokenKind
	text string
	val  int32
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokInt:
		return fmt.Sprintf("%d", t.val)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lexer splits source text into tokens, one per call of next, which is
// how the parser pulls them. Multi-character operators are matched
// longest-first (">>>" before ">>" before ">"). It reads the source string
// in place: pos is a byte offset, col counts runes, and an invalid UTF-8
// byte reads as one U+FFFD rune.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

var punctuation = []string{
	">>>", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+", "-", "*", "&", "|", "^", "<", ">", "!", "~", "=",
	"(", ")", "{", "}", "[", "]", ";", ",",
}

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("%d:%d: %s", l.line, l.col, fmt.Sprintf(format, args...))
}

// runeAt decodes the rune at byte offset i and its width; 0 past the end.
func (l *lexer) runeAt(i int) (rune, int) {
	if i >= len(l.src) {
		return 0, 0
	}
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[i:])
}

func (l *lexer) peek() rune {
	r, _ := l.runeAt(l.pos)
	return r
}

// peek2 is the rune after the current one.
func (l *lexer) peek2() rune {
	_, w := l.runeAt(l.pos)
	r, _ := l.runeAt(l.pos + w)
	return r
}

func (l *lexer) advance() rune {
	r, w := l.runeAt(l.pos)
	l.pos += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		r := l.peek()
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			closed := false
			for {
				// The last rune cannot open "*/": it stays unread, and
				// the error points at it.
				if _, w := l.runeAt(l.pos); l.pos+w >= len(l.src) {
					break
				}
				if l.hasPrefix("*/") {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line, col: l.col}, nil
	}
	line, col := l.line, l.col
	r := l.peek()
	switch {
	case unicode.IsLetter(r) || r == '_':
		start := l.pos
		for l.pos < len(l.src) && (unicode.IsLetter(l.peek()) || unicode.IsDigit(l.peek()) || l.peek() == '_') {
			l.advance()
		}
		// A copy: names outlive the parse, and must not pin the source.
		return token{kind: tokIdent, text: strings.Clone(l.src[start:l.pos]), line: line, col: col}, nil
	case unicode.IsDigit(r):
		start := l.pos
		base := 10
		if r == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
			l.advance()
			l.advance()
			base = 16
			start = l.pos
		}
		for l.pos < len(l.src) && (unicode.IsDigit(l.peek()) ||
			(base == 16 && isHexLetter(l.peek()))) {
			l.advance()
		}
		text := l.src[start:l.pos]
		v, err := strconv.ParseUint(text, base, 32)
		if err != nil {
			return token{}, fmt.Errorf("%d:%d: bad integer literal %q: %v", line, col, text, err)
		}
		return token{kind: tokInt, val: int32(uint32(v)), text: text, line: line, col: col}, nil
	default:
		for _, p := range punctuation {
			if rune(p[0]) == r && l.hasPrefix(p) {
				for range p {
					l.advance()
				}
				return token{kind: tokPunct, text: p, line: line, col: col}, nil
			}
		}
		return token{}, l.errf("unexpected character %q", r)
	}
}

// hasPrefix reports whether the unread input starts with the ASCII string p.
func (l *lexer) hasPrefix(p string) bool { return strings.HasPrefix(l.src[l.pos:], p) }

func isHexLetter(r rune) bool {
	return ('a' <= r && r <= 'f') || ('A' <= r && r <= 'F')
}
