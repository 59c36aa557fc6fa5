package ir

import "fmt"

// Validate checks a kernel for structural well-formedness: every variable is
// assigned (or declared as a scalar parameter) before it is read, array
// accesses name array parameters, array names are never used as scalars, and
// shift amounts are plain expressions. It returns the first violation found.
func Validate(k *Kernel) error {
	v := newValidator(k, nil)
	for _, p := range k.Params {
		if p.Name == "" {
			return fmt.Errorf("kernel %s: parameter with empty name", k.Name)
		}
		if !v.param(p) {
			return fmt.Errorf("kernel %s: duplicate parameter %q", k.Name, p.Name)
		}
	}
	return v.stmts(k.Body)
}

// validator tracks definite assignment by number: each name gets a dense
// id on first sight, and the set of definitely assigned ids is a flag per
// id plus a log of the ids added to it, in order. A branch or loop undoes
// its body's additions by truncating the log instead of copying the set.
type validator struct {
	kernel *Kernel
	// program resolves calls; nil for single-kernel validation, where
	// calls are rejected (they must be inlined first).
	program *Program

	ids  map[string]int32
	vars []validVar // by id
	// added lists the defined ids in the order they became defined.
	added []int32
	// thenAdded stacks, for every if whose else arm is being checked, the
	// ids its then arm defined.
	thenAdded []int32
	ifSeq     int32
}

type validVar struct {
	// defined says the scalar is assigned on every path that reaches the
	// current statement.
	defined bool
	// stamp is the ifSeq of the last if join that found the variable
	// defined by its then arm.
	stamp int32
}

func newValidator(k *Kernel, p *Program) *validator {
	n := 2*len(k.Params) + 16
	return &validator{
		kernel:  k,
		program: p,
		ids:     make(map[string]int32, n),
		vars:    make([]validVar, 0, n),
		added:   make([]int32, 0, n),
	}
}

// param numbers parameter p, defining it when it is a scalar, and reports
// false when a parameter of that name was numbered already.
func (v *validator) param(p Param) bool {
	if _, dup := v.ids[p.Name]; dup {
		return false
	}
	if p.Kind == ArrayRef {
		v.id(p.Name)
	} else {
		v.define(p.Name)
	}
	return true
}

// id returns name's number, assigning the next one on first sight.
func (v *validator) id(name string) int32 {
	id, ok := v.ids[name]
	if !ok {
		id = int32(len(v.vars))
		v.ids[name] = id
		v.vars = append(v.vars, validVar{})
	}
	return id
}

func (v *validator) define(name string) {
	if id := v.id(name); !v.vars[id].defined {
		v.vars[id].defined = true
		v.added = append(v.added, id)
	}
}

// undo forgets every definition logged after the first mark entries.
func (v *validator) undo(mark int) {
	for _, id := range v.added[mark:] {
		v.vars[id].defined = false
	}
	v.added = v.added[:mark]
}

func (v *validator) stmts(stmts []Stmt) error {
	for _, s := range stmts {
		if err := v.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (v *validator) stmt(s Stmt) error {
	switch s := s.(type) {
	case *Assign:
		if v.kernel.IsArray(s.Name) {
			return fmt.Errorf("cannot assign scalar to array parameter %q", s.Name)
		}
		if err := v.expr(s.Value); err != nil {
			return err
		}
		v.define(s.Name)
		return nil
	case *Store:
		if !v.kernel.IsArray(s.Array) {
			return fmt.Errorf("store to %q: not an array parameter", s.Array)
		}
		if err := v.expr(s.Index); err != nil {
			return err
		}
		return v.expr(s.Value)
	case *If:
		if err := v.expr(s.Cond); err != nil {
			return err
		}
		// Variables assigned in only one arm are not definitely assigned
		// afterwards: keep what the else arm added only where the then
		// arm added it too.
		mark := len(v.added)
		if err := v.stmts(s.Then); err != nil {
			return err
		}
		base := len(v.thenAdded)
		v.thenAdded = append(v.thenAdded, v.added[mark:]...)
		v.undo(mark)
		if err := v.stmts(s.Else); err != nil {
			return err
		}
		v.ifSeq++
		for _, id := range v.thenAdded[base:] {
			v.vars[id].stamp = v.ifSeq
		}
		v.thenAdded = v.thenAdded[:base]
		kept := v.added[:mark]
		for _, id := range v.added[mark:] {
			if v.vars[id].stamp == v.ifSeq {
				kept = append(kept, id)
			} else {
				v.vars[id].defined = false
			}
		}
		v.added = kept
		return nil
	case *While:
		if err := v.expr(s.Cond); err != nil {
			return err
		}
		// The body may execute zero times: validate it against the current
		// definitions but discard additions afterwards. The condition was
		// validated against the entry set, the stricter check.
		mark := len(v.added)
		if err := v.stmts(s.Body); err != nil {
			return err
		}
		v.undo(mark)
		return nil
	case *For:
		if s.Init != nil {
			if err := v.stmt(s.Init); err != nil {
				return err
			}
		}
		if err := v.expr(s.Cond); err != nil {
			return err
		}
		mark := len(v.added)
		if err := v.stmts(s.Body); err != nil {
			return err
		}
		if s.Post != nil {
			if err := v.stmt(s.Post); err != nil {
				return err
			}
		}
		v.undo(mark)
		return nil
	case *Call:
		if v.program == nil {
			return fmt.Errorf("call to %q outside a program context (inline first)", s.Callee)
		}
		callee := v.program.Kernels[s.Callee]
		return checkCall(v.kernel, callee, s, func(p Param, arg Expr) error {
			switch p.Kind {
			case ScalarIn:
				return v.expr(arg)
			case ScalarInOut:
				// Copied in and written back: must be readable now,
				// stays defined afterwards.
				if err := v.expr(arg); err != nil {
					return err
				}
				v.define(arg.(*VarRef).Name)
			}
			return nil
		})
	case nil:
		return fmt.Errorf("nil statement")
	default:
		return fmt.Errorf("unknown statement type %T", s)
	}
}

func (v *validator) expr(e Expr) error {
	switch e := e.(type) {
	case *Const:
		return nil
	case *VarRef:
		if v.kernel.IsArray(e.Name) {
			return fmt.Errorf("array parameter %q used as scalar", e.Name)
		}
		if id, ok := v.ids[e.Name]; !ok || !v.vars[id].defined {
			return fmt.Errorf("variable %q may be read before assignment", e.Name)
		}
		return nil
	case *Load:
		if !v.kernel.IsArray(e.Array) {
			return fmt.Errorf("load from %q: not an array parameter", e.Array)
		}
		return v.expr(e.Index)
	case *Bin:
		if err := v.expr(e.X); err != nil {
			return err
		}
		return v.expr(e.Y)
	case *Un:
		return v.expr(e.X)
	case nil:
		return fmt.Errorf("nil expression")
	default:
		return fmt.Errorf("unknown expression type %T", e)
	}
}
