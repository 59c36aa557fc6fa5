package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// Digest returns a stable content hash of the kernel: the hex-encoded
// SHA-256 of a canonical serialization of its name, parameter list and
// statement tree. Structurally identical kernels always hash identically —
// across processes, runs and architectures — so the digest is usable as a
// cache key for compiled artifacts and for deduplication in exploration.
//
// The canonical form is tag-prefixed and fully parenthesized, so distinct
// trees cannot collide by concatenation (e.g. `a=1; b=2` vs `a=12`).
func (k *Kernel) Digest() string {
	b := make([]byte, 0, 1024)
	b = strconv.AppendQuote(append(b, "kernel "...), k.Name)
	b = appendInt(b, " ", int64(len(k.Params)))
	for _, p := range k.Params {
		b = strconv.AppendQuote(append(b, "param "...), p.Name)
		b = appendInt(b, " ", int64(p.Kind))
	}
	b = digestStmts(b, k.Body)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// appendQuoted appends one line: tag, then s Go-quoted, then a newline.
func appendQuoted(b []byte, tag, s string) []byte {
	return append(strconv.AppendQuote(append(b, tag...), s), '\n')
}

// appendInt appends one line: tag, then n in decimal, then a newline.
func appendInt(b []byte, tag string, n int64) []byte {
	return append(strconv.AppendInt(append(b, tag...), n, 10), '\n')
}

func digestStmts(b []byte, stmts []Stmt) []byte {
	b = appendInt(b, "block ", int64(len(stmts)))
	for _, s := range stmts {
		switch s := s.(type) {
		case *Assign:
			b = appendQuoted(b, "assign ", s.Name)
			b = digestExpr(b, s.Value)
		case *Store:
			b = appendQuoted(b, "store ", s.Array)
			b = digestExpr(b, s.Index)
			b = digestExpr(b, s.Value)
		case *If:
			b = append(b, "if\n"...)
			b = digestExpr(b, s.Cond)
			b = digestStmts(b, s.Then)
			b = digestStmts(b, s.Else)
		case *While:
			b = append(b, "while\n"...)
			b = digestExpr(b, s.Cond)
			b = digestStmts(b, s.Body)
		case *For:
			b = append(b, "for\n"...)
			if s.Init != nil {
				b = appendQuoted(b, "init ", s.Init.Name)
				b = digestExpr(b, s.Init.Value)
			}
			b = digestExpr(b, s.Cond)
			if s.Post != nil {
				b = appendQuoted(b, "post ", s.Post.Name)
				b = digestExpr(b, s.Post.Value)
			}
			b = digestStmts(b, s.Body)
		case *Call:
			// The cache keys a kernel after inlining, which leaves no
			// calls, but a registered source keeps them: two kernels that
			// differ only in a call are different sources.
			b = appendQuoted(b, "call ", s.Callee)
			b = appendInt(b, "args ", int64(len(s.Args)))
			for _, a := range s.Args {
				b = digestExpr(b, a)
			}
		default:
			b = append(b, "stmt <nil>\n"...)
		}
	}
	return b
}

func digestExpr(b []byte, e Expr) []byte {
	switch e := e.(type) {
	case *Const:
		return appendInt(b, "const ", int64(e.Value))
	case *VarRef:
		return appendQuoted(b, "var ", e.Name)
	case *Load:
		return digestExpr(appendQuoted(b, "load ", e.Array), e.Index)
	case *Bin:
		b = appendInt(b, "bin ", int64(e.Op))
		return digestExpr(digestExpr(b, e.X), e.Y)
	case *Un:
		return digestExpr(appendInt(b, "un ", int64(e.Op)), e.X)
	default:
		return append(b, "nil\n"...)
	}
}
