package opt

import (
	"fmt"

	"cgra/internal/ir"
)

// Inline replaces every kernel call in the program's entry kernel with the
// callee's body — the "method inlining" step of the paper's synthesis flow
// (Fig. 1). Callee locals and scalar parameters are renamed to fresh
// temporaries; array parameters are substituted by the caller's arrays.
// Calls nest (a callee may call further kernels); recursion is rejected by
// ir.ValidateProgram beforehand and guarded here with a depth limit.
//
// Only the entry's call closure is validated and inlined: a kernel the
// entry never reaches costs nothing, and an invalid one fails only its own
// compile, so inlining one kernel does not grow with the library around it.
func Inline(p *ir.Program) (*ir.Kernel, error) {
	p = p.CallClosure()
	if err := ir.ValidateProgram(p); err != nil {
		return nil, fmt.Errorf("opt: %v", err)
	}
	entry := p.EntryKernel()
	inl := &inliner{program: p}
	body, err := inl.stmts(entry, entry.Body, 0)
	if err != nil {
		return nil, err
	}
	out := &ir.Kernel{Name: entry.Name, Params: entry.Params, Body: body}
	if err := ir.Validate(out); err != nil {
		return nil, fmt.Errorf("opt: inlined kernel invalid: %v", err)
	}
	return out, nil
}

const maxInlineDepth = 16

type inliner struct {
	program *ir.Program
	temp    int
}

func (in *inliner) fresh(callee, name string) string {
	in.temp++
	return fmt.Sprintf("$%s%d_%s", callee, in.temp, name)
}

func (in *inliner) stmts(caller *ir.Kernel, stmts []ir.Stmt, depth int) ([]ir.Stmt, error) {
	var out []ir.Stmt
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Call:
			inlined, err := in.expand(caller, s, depth)
			if err != nil {
				return nil, err
			}
			out = append(out, inlined...)
		case *ir.If:
			then, err := in.stmts(caller, s.Then, depth)
			if err != nil {
				return nil, err
			}
			els, err := in.stmts(caller, s.Else, depth)
			if err != nil {
				return nil, err
			}
			out = append(out, &ir.If{Cond: s.Cond, Then: then, Else: els})
		case *ir.While:
			body, err := in.stmts(caller, s.Body, depth)
			if err != nil {
				return nil, err
			}
			out = append(out, &ir.While{Cond: s.Cond, Body: body})
		case *ir.For:
			body, err := in.stmts(caller, s.Body, depth)
			if err != nil {
				return nil, err
			}
			out = append(out, &ir.For{Init: s.Init, Cond: s.Cond, Post: s.Post, Body: body})
		default:
			out = append(out, s)
		}
	}
	return out, nil
}

// expand inlines one call site.
func (in *inliner) expand(caller *ir.Kernel, c *ir.Call, depth int) ([]ir.Stmt, error) {
	if depth >= maxInlineDepth {
		return nil, fmt.Errorf("opt: inline depth %d exceeded at call to %q", depth, c.Callee)
	}
	callee := in.program.Kernels[c.Callee]
	if callee == nil {
		return nil, fmt.Errorf("opt: call to unknown kernel %q", c.Callee)
	}
	if len(c.Args) != len(callee.Params) {
		return nil, fmt.Errorf("opt: call to %q: argument count mismatch", c.Callee)
	}
	scalarMap := map[string]string{} // callee scalar -> caller fresh name
	arrayMap := map[string]string{}  // callee array -> caller array
	var pre, post []ir.Stmt
	for i, p := range callee.Params {
		arg := c.Args[i]
		switch p.Kind {
		case ir.ScalarIn:
			name := in.fresh(callee.Name, p.Name)
			scalarMap[p.Name] = name
			pre = append(pre, ir.Set(name, arg))
		case ir.ScalarInOut:
			v, ok := arg.(*ir.VarRef)
			if !ok {
				return nil, fmt.Errorf("opt: call to %q: inout parameter %q needs a variable", c.Callee, p.Name)
			}
			name := in.fresh(callee.Name, p.Name)
			scalarMap[p.Name] = name
			pre = append(pre, ir.Set(name, ir.V(v.Name)))
			post = append(post, ir.Set(v.Name, ir.V(name)))
		case ir.ArrayRef:
			v, ok := arg.(*ir.VarRef)
			if !ok {
				return nil, fmt.Errorf("opt: call to %q: array parameter %q needs an array name", c.Callee, p.Name)
			}
			arrayMap[p.Name] = v.Name
		}
	}
	// Rename every local the callee assigns (beyond its parameters).
	for _, name := range assignedIn(callee.Body) {
		if _, done := scalarMap[name]; !done {
			scalarMap[name] = in.fresh(callee.Name, name)
		}
	}
	body, err := renameStmts(callee.Body, scalarMap, arrayMap)
	if err != nil {
		return nil, err
	}
	// Inline nested calls within the renamed body.
	body, err = in.stmts(caller, body, depth+1)
	if err != nil {
		return nil, err
	}
	out := append(pre, body...)
	return append(out, post...), nil
}

func renameStmts(stmts []ir.Stmt, scalars, arrays map[string]string) ([]ir.Stmt, error) {
	out := make([]ir.Stmt, 0, len(stmts))
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Assign:
			out = append(out, &ir.Assign{
				Name:  renameVar(s.Name, scalars),
				Value: renameExpr(s.Value, scalars, arrays),
			})
		case *ir.Store:
			arr, ok := arrays[s.Array]
			if !ok {
				return nil, fmt.Errorf("opt: store to unmapped array %q", s.Array)
			}
			out = append(out, &ir.Store{
				Array: arr,
				Index: renameExpr(s.Index, scalars, arrays),
				Value: renameExpr(s.Value, scalars, arrays),
			})
		case *ir.If:
			then, err := renameStmts(s.Then, scalars, arrays)
			if err != nil {
				return nil, err
			}
			els, err := renameStmts(s.Else, scalars, arrays)
			if err != nil {
				return nil, err
			}
			out = append(out, &ir.If{
				Cond: renameExpr(s.Cond, scalars, arrays),
				Then: then, Else: els,
			})
		case *ir.While:
			body, err := renameStmts(s.Body, scalars, arrays)
			if err != nil {
				return nil, err
			}
			out = append(out, &ir.While{Cond: renameExpr(s.Cond, scalars, arrays), Body: body})
		case *ir.For:
			body, err := renameStmts(s.Body, scalars, arrays)
			if err != nil {
				return nil, err
			}
			f := &ir.For{Cond: renameExpr(s.Cond, scalars, arrays), Body: body}
			if s.Init != nil {
				f.Init = &ir.Assign{Name: renameVar(s.Init.Name, scalars), Value: renameExpr(s.Init.Value, scalars, arrays)}
			}
			if s.Post != nil {
				f.Post = &ir.Assign{Name: renameVar(s.Post.Name, scalars), Value: renameExpr(s.Post.Value, scalars, arrays)}
			}
			out = append(out, f)
		case *ir.Call:
			// Rename the arguments; expansion happens in a later pass.
			args := make([]ir.Expr, len(s.Args))
			for i, a := range s.Args {
				// Array arguments rename through the array map.
				if v, ok := a.(*ir.VarRef); ok {
					if mapped, isArr := arrays[v.Name]; isArr {
						args[i] = ir.V(mapped)
						continue
					}
				}
				args[i] = renameExpr(a, scalars, arrays)
			}
			out = append(out, &ir.Call{Callee: s.Callee, Args: args})
		default:
			return nil, fmt.Errorf("opt: cannot rename statement %T", s)
		}
	}
	return out, nil
}

func renameVar(name string, scalars map[string]string) string {
	if n, ok := scalars[name]; ok {
		return n
	}
	return name
}

func renameExpr(e ir.Expr, scalars, arrays map[string]string) ir.Expr {
	switch e := e.(type) {
	case *ir.Const:
		return e
	case *ir.VarRef:
		return ir.V(renameVar(e.Name, scalars))
	case *ir.Load:
		arr := e.Array
		if mapped, ok := arrays[arr]; ok {
			arr = mapped
		}
		return &ir.Load{Array: arr, Index: renameExpr(e.Index, scalars, arrays)}
	case *ir.Bin:
		return &ir.Bin{Op: e.Op, X: renameExpr(e.X, scalars, arrays), Y: renameExpr(e.Y, scalars, arrays)}
	case *ir.Un:
		return &ir.Un{Op: e.Op, X: renameExpr(e.X, scalars, arrays)}
	default:
		return e
	}
}

// assignedIn lists the variables stmts assign, in program order (repeats
// included).
func assignedIn(stmts []ir.Stmt) []string {
	var out []string
	var walk func([]ir.Stmt)
	walk = func(ss []ir.Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *ir.Assign:
				out = append(out, s.Name)
			case *ir.If:
				walk(s.Then)
				walk(s.Else)
			case *ir.While:
				walk(s.Body)
			case *ir.For:
				if s.Init != nil {
					out = append(out, s.Init.Name)
				}
				if s.Post != nil {
					out = append(out, s.Post.Name)
				}
				walk(s.Body)
			}
		}
	}
	walk(stmts)
	return out
}
