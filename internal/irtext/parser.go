package irtext

import (
	"fmt"

	"cgra/internal/ir"
)

// Parse compiles kernel source text into a validated IR kernel.
//
// Grammar (EBNF):
//
//	kernel    = "kernel" ident "(" [param {"," param}] ")" block .
//	param     = ("in" | "inout" | "array") ident .
//	block     = "{" {stmt} "}" .
//	stmt      = assign ";" | store ";" | ifStmt | whileStmt | forStmt .
//	assign    = ident "=" expr .
//	store     = ident "[" expr "]" "=" expr .
//	ifStmt    = "if" "(" expr ")" block ["else" (block | ifStmt)] .
//	whileStmt = "while" "(" expr ")" block .
//	forStmt   = "for" "(" assign ";" expr ";" assign ")" block .
//	expr      = C-style precedence over || && | ^ & (==|!=) (<|<=|>|>=)
//	            (<<|>>|>>>) (+|-) (*) with unary - ~ ! and primaries
//	            int, ident, ident[expr], (expr) .
func Parse(src string) (*ir.Kernel, error) {
	p := newParser(src)
	k, err := p.kernel()
	if err == nil && p.cur().kind != tokEOF {
		err = p.errf("trailing input after kernel body: %s", p.cur())
	}
	if err := p.finish(err); err != nil {
		return nil, err
	}
	if err := ir.Validate(k); err != nil {
		return nil, fmt.Errorf("kernel %s: %v", k.Name, err)
	}
	return k, nil
}

// ParseProgram parses one or more kernels from a single source; the first
// kernel is the program entry. Calls between the kernels are resolved and
// validated (ir.ValidateProgram).
func ParseProgram(src string) (*ir.Program, error) {
	p := newParser(src)
	var prog *ir.Program
	for p.cur().kind != tokEOF {
		k, err := p.kernel()
		if err != nil {
			return nil, p.finish(err)
		}
		if prog == nil {
			prog = ir.NewProgram(k)
		} else {
			if _, dup := prog.Kernels[k.Name]; dup {
				return nil, p.finish(fmt.Errorf("duplicate kernel %q", k.Name))
			}
			prog.Kernels[k.Name] = k
		}
	}
	if err := p.finish(nil); err != nil {
		return nil, err
	}
	if prog == nil {
		return nil, fmt.Errorf("no kernels in source")
	}
	if err := ir.ValidateProgram(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// parser is a recursive-descent parser over a token stream it pulls from
// the lexer one token at a time: it looks one token ahead (cur) and never
// backtracks, so no token slice is ever built.
type parser struct {
	lex *lexer
	tok token
	// lexErr is the lexer's first error. The stream then ends: cur is an
	// end-of-input token from there on.
	lexErr error
}

func newParser(src string) *parser {
	p := &parser{lex: newLexer(src)}
	p.advance()
	return p
}

// cur is the current token.
func (p *parser) cur() token { return p.tok }

// advance moves to the next token.
func (p *parser) advance() {
	if p.lexErr != nil {
		return
	}
	t, err := p.lex.next()
	if err != nil {
		p.lexErr = err
		t = token{kind: tokEOF, line: p.lex.line, col: p.lex.col}
	}
	p.tok = t
}

// finish settles how a parse that stopped with err (nil if it completed)
// ends. A lexical error anywhere in the source wins over a parse error, as
// if the whole source had been lexed first: on a parse error the rest of
// the source is lexed to find one.
func (p *parser) finish(err error) error {
	if err != nil {
		for p.lexErr == nil && p.tok.kind != tokEOF {
			p.advance()
		}
	}
	if p.lexErr != nil {
		return p.lexErr
	}
	return err
}

func (p *parser) errf(format string, args ...interface{}) error {
	t := p.cur()
	return fmt.Errorf("%d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	t := p.cur()
	if t.kind != tokPunct || t.text != s {
		return p.errf("expected %q, found %s", s, t)
	}
	p.advance()
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	t := p.cur()
	if t.kind == tokPunct && t.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %s", t)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) acceptKeyword(kw string) bool {
	t := p.cur()
	if t.kind == tokIdent && t.text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) kernel() (*ir.Kernel, error) {
	if !p.acceptKeyword("kernel") {
		return nil, p.errf("expected %q, found %s", "kernel", p.cur())
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var params []ir.Param
	if !p.acceptPunct(")") {
		for {
			prm, err := p.param()
			if err != nil {
				return nil, err
			}
			params = append(params, prm)
			if p.acceptPunct(")") {
				break
			}
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &ir.Kernel{Name: name, Params: params, Body: body}, nil
}

func (p *parser) param() (ir.Param, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return ir.Param{}, p.errf("expected parameter kind, found %s", t)
	}
	var kind ir.ParamKind
	switch t.text {
	case "in":
		kind = ir.ScalarIn
	case "inout":
		kind = ir.ScalarInOut
	case "array":
		kind = ir.ArrayRef
	default:
		return ir.Param{}, p.errf("unknown parameter kind %q (want in, inout or array)", t.text)
	}
	p.advance()
	name, err := p.expectIdent()
	if err != nil {
		return ir.Param{}, err
	}
	return ir.Param{Name: name, Kind: kind}, nil
}

func (p *parser) block() ([]ir.Stmt, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var stmts []ir.Stmt
	for !p.acceptPunct("}") {
		if p.cur().kind == tokEOF {
			return nil, p.errf("unexpected end of input in block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

func (p *parser) stmt() (ir.Stmt, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return nil, p.errf("expected statement, found %s", t)
	}
	switch t.text {
	case "if":
		return p.ifStmt()
	case "while":
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &ir.While{Cond: cond, Body: body}, nil
	case "for":
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		init, err := p.assign()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		post, err := p.assign()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &ir.For{Init: init, Cond: cond, Post: post, Body: body}, nil
	default:
		// assignment, array store, or kernel call
		name := t.text
		p.advance()
		if p.acceptPunct("(") {
			var args []ir.Expr
			if !p.acceptPunct(")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.acceptPunct(")") {
						break
					}
					if err := p.expectPunct(","); err != nil {
						return nil, err
					}
				}
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			return &ir.Call{Callee: name, Args: args}, nil
		}
		if p.acceptPunct("[") {
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			val, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			return &ir.Store{Array: name, Index: idx, Value: val}, nil
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &ir.Assign{Name: name, Value: val}, nil
	}
}

func (p *parser) assign() (*ir.Assign, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	val, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &ir.Assign{Name: name, Value: val}, nil
}

func (p *parser) ifStmt() (ir.Stmt, error) {
	p.advance() // "if"
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	var els []ir.Stmt
	if p.acceptKeyword("else") {
		if p.cur().kind == tokIdent && p.cur().text == "if" {
			s, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			els = []ir.Stmt{s}
		} else {
			els, err = p.block()
			if err != nil {
				return nil, err
			}
		}
	}
	return &ir.If{Cond: cond, Then: then, Else: els}, nil
}

// binLevels lists binary operator precedence levels, loosest first.
var binLevels = [][]struct {
	text string
	op   ir.BinOp
}{
	{{"||", ir.OpLOr}},
	{{"&&", ir.OpLAnd}},
	{{"|", ir.OpOr}},
	{{"^", ir.OpXor}},
	{{"&", ir.OpAnd}},
	{{"==", ir.OpEq}, {"!=", ir.OpNe}},
	{{"<=", ir.OpLe}, {">=", ir.OpGe}, {"<", ir.OpLt}, {">", ir.OpGt}},
	{{"<<", ir.OpShl}, {">>>", ir.OpShrU}, {">>", ir.OpShr}},
	{{"+", ir.OpAdd}, {"-", ir.OpSub}},
	{{"*", ir.OpMul}},
}

func (p *parser) expr() (ir.Expr, error) { return p.binary(0) }

func (p *parser) binary(level int) (ir.Expr, error) {
	if level >= len(binLevels) {
		return p.unary()
	}
	left, err := p.binary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, cand := range binLevels[level] {
			if p.cur().kind == tokPunct && p.cur().text == cand.text {
				p.advance()
				right, err := p.binary(level + 1)
				if err != nil {
					return nil, err
				}
				left = &ir.Bin{Op: cand.op, X: left, Y: right}
				matched = true
				break
			}
		}
		if !matched {
			return left, nil
		}
	}
}

func (p *parser) unary() (ir.Expr, error) {
	t := p.cur()
	if t.kind == tokPunct {
		switch t.text {
		case "-":
			p.advance()
			x, err := p.unary()
			if err != nil {
				return nil, err
			}
			// Fold -literal immediately so "-1" is a constant.
			if c, ok := x.(*ir.Const); ok {
				return &ir.Const{Value: -c.Value}, nil
			}
			return &ir.Un{Op: ir.OpNeg, X: x}, nil
		case "~":
			p.advance()
			x, err := p.unary()
			if err != nil {
				return nil, err
			}
			return &ir.Un{Op: ir.OpNot, X: x}, nil
		case "!":
			p.advance()
			x, err := p.unary()
			if err != nil {
				return nil, err
			}
			return &ir.Un{Op: ir.OpLNot, X: x}, nil
		}
	}
	return p.primary()
}

func (p *parser) primary() (ir.Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.advance()
		return &ir.Const{Value: t.val}, nil
	case t.kind == tokIdent:
		p.advance()
		if p.acceptPunct("[") {
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			return &ir.Load{Array: t.text, Index: idx}, nil
		}
		return &ir.VarRef{Name: t.text}, nil
	case t.kind == tokPunct && t.text == "(":
		p.advance()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errf("expected expression, found %s", t)
	}
}
