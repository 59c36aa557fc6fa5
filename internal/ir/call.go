package ir

import "fmt"

// Call invokes another kernel as a statement (the paper's bytecode front
// end sees Java method calls; Fig. 1 lists "method inlining" as an optional
// synthesis step). Arguments bind positionally to the callee's parameters:
//
//   - ScalarIn    ← any expression (passed by value),
//   - ScalarInOut ← a variable reference (copied in, result copied back),
//   - ArrayRef    ← an array parameter name of the caller (aliased).
//
// The CGRA flow cannot map calls directly — opt.Inline replaces them with
// the callee's body before CDFG construction.
type Call struct {
	Callee string
	Args   []Expr
}

func (*Call) stmtNode() {}

// Program is a set of kernels that may call each other; Entry names the
// kernel handed to the tool flow.
type Program struct {
	Kernels map[string]*Kernel
	Entry   string
}

// NewProgram assembles a program from kernels (the first is the entry).
func NewProgram(entry *Kernel, others ...*Kernel) *Program {
	p := &Program{Kernels: map[string]*Kernel{entry.Name: entry}, Entry: entry.Name}
	for _, k := range others {
		p.Kernels[k.Name] = k
	}
	return p
}

// EntryKernel returns the entry kernel.
func (p *Program) EntryKernel() *Kernel { return p.Kernels[p.Entry] }

// CallClosure returns the program cut down to its entry and every kernel
// the entry calls, directly or transitively. Calls to kernels the program
// lacks stay unresolved, so validating the closure reports them as
// ValidateProgram on the whole program would; an unknown entry yields a
// closure without kernels.
func (p *Program) CallClosure() *Program {
	c := &Program{Kernels: map[string]*Kernel{}, Entry: p.Entry}
	var visit func(name string)
	visit = func(name string) {
		k := p.Kernels[name]
		if k == nil || c.Kernels[name] != nil {
			return
		}
		c.Kernels[name] = k
		for _, callee := range calledKernels(k.Body) {
			visit(callee)
		}
	}
	visit(p.Entry)
	return c
}

// checkCall validates one call site against the callee signature; bind is
// invoked for each (param, argument) pair after structural checks.
func checkCall(caller, callee *Kernel, c *Call, bind func(p Param, arg Expr) error) error {
	if callee == nil {
		return fmt.Errorf("call to unknown kernel %q", c.Callee)
	}
	if len(c.Args) != len(callee.Params) {
		return fmt.Errorf("call to %q: %d arguments for %d parameters",
			c.Callee, len(c.Args), len(callee.Params))
	}
	for i, p := range callee.Params {
		arg := c.Args[i]
		switch p.Kind {
		case ScalarInOut:
			v, ok := arg.(*VarRef)
			if !ok {
				return fmt.Errorf("call to %q: inout parameter %q needs a variable argument", c.Callee, p.Name)
			}
			if caller.IsArray(v.Name) {
				return fmt.Errorf("call to %q: inout parameter %q bound to array %q", c.Callee, p.Name, v.Name)
			}
		case ArrayRef:
			v, ok := arg.(*VarRef)
			if !ok || !caller.IsArray(v.Name) {
				return fmt.Errorf("call to %q: array parameter %q needs an array argument", c.Callee, p.Name)
			}
		}
		if bind != nil {
			if err := bind(p, arg); err != nil {
				return err
			}
		}
	}
	return nil
}

// ValidateProgram validates every kernel of a program, resolving calls
// against the program's kernel set and rejecting recursion (which cannot be
// inlined).
func ValidateProgram(p *Program) error {
	if p.Kernels[p.Entry] == nil {
		return fmt.Errorf("program: unknown entry kernel %q", p.Entry)
	}
	for _, k := range p.Kernels {
		v := newValidator(k, p)
		for _, prm := range k.Params {
			if !v.param(prm) {
				return fmt.Errorf("kernel %s: duplicate parameter %q", k.Name, prm.Name)
			}
		}
		if err := v.stmts(k.Body); err != nil {
			return fmt.Errorf("kernel %s: %v", k.Name, err)
		}
	}
	return checkNoRecursion(p)
}

func checkNoRecursion(p *Program) error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(name string) error
	visit = func(name string) error {
		switch color[name] {
		case grey:
			return fmt.Errorf("program: recursive call chain through %q (cannot inline)", name)
		case black:
			return nil
		}
		color[name] = grey
		k := p.Kernels[name]
		if k != nil {
			for _, callee := range calledKernels(k.Body) {
				if err := visit(callee); err != nil {
					return err
				}
			}
		}
		color[name] = black
		return nil
	}
	for name := range p.Kernels {
		if err := visit(name); err != nil {
			return err
		}
	}
	return nil
}

func calledKernels(stmts []Stmt) []string {
	var out []string
	var walk func([]Stmt)
	walk = func(ss []Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *Call:
				out = append(out, s.Callee)
			case *If:
				walk(s.Then)
				walk(s.Else)
			case *While:
				walk(s.Body)
			case *For:
				walk(s.Body)
			}
		}
	}
	walk(stmts)
	return out
}
