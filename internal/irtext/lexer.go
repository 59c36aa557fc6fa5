// Package irtext provides a textual front end for the kernel IR, so kernels
// can be written as source strings instead of builder calls. The language is
// a minimal C/Java-like subset matching what the paper's bytecode front end
// can express: 32-bit integer scalars, array parameters, assignments,
// if/else, while, for, and the CGRA-supported operator set (no division).
package irtext

import (
	"fmt"
	"strconv"
	"unicode"
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

// lexer splits source text into tokens. Multi-character operators are
// matched longest-first (">>>" before ">>" before ">").
type lexer struct {
	src  []rune
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: []rune(src), line: 1, col: 1}
}

var punctuation = []string{
	">>>", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+", "-", "*", "&", "|", "^", "<", ">", "!", "~", "=",
	"(", ")", "{", "}", "[", "]", ";", ",",
}

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("%d:%d: %s", l.line, l.col, fmt.Sprintf(format, args...))
}

func (l *lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
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
		case r == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos+1 < len(l.src) {
				if l.peek() == '*' && l.src[l.pos+1] == '/' {
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
		return token{kind: tokIdent, text: string(l.src[start:l.pos]), line: line, col: col}, nil
	case unicode.IsDigit(r):
		start := l.pos
		base := 10
		if r == '0' && l.pos+1 < len(l.src) && (l.src[l.pos+1] == 'x' || l.src[l.pos+1] == 'X') {
			l.advance()
			l.advance()
			base = 16
			start = l.pos
		}
		for l.pos < len(l.src) && (unicode.IsDigit(l.peek()) ||
			(base == 16 && isHexLetter(l.peek()))) {
			l.advance()
		}
		text := string(l.src[start:l.pos])
		v, err := strconv.ParseUint(text, base, 32)
		if err != nil {
			return token{}, fmt.Errorf("%d:%d: bad integer literal %q: %v", line, col, text, err)
		}
		return token{kind: tokInt, val: int32(uint32(v)), text: text, line: line, col: col}, nil
	default:
		for _, p := range punctuation {
			if l.hasPrefix(p) {
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
// It looks at len(p) runes only: converting the rest of the source to a
// string for every operator made lexing quadratic in the source length.
func (l *lexer) hasPrefix(p string) bool {
	if len(l.src)-l.pos < len(p) {
		return false
	}
	for i := 0; i < len(p); i++ {
		if l.src[l.pos+i] != rune(p[i]) {
			return false
		}
	}
	return true
}

func isHexLetter(r rune) bool {
	return ('a' <= r && r <= 'f') || ('A' <= r && r <= 'F')
}

func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
