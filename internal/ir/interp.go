package ir

import (
	"errors"
	"fmt"
)

// Host models the heap of the host processor. Array parameters of a kernel
// are handles into this heap; the CGRA (and the interpreter standing in for
// it) accesses them via DMA.
type Host struct {
	Arrays map[string][]int32
}

// NewHost creates an empty host heap.
func NewHost() *Host { return &Host{Arrays: map[string][]int32{}} }

// Clone deep-copies the heap so that reference and CGRA runs can be compared.
func (h *Host) Clone() *Host {
	c := NewHost()
	for name, a := range h.Arrays {
		c.Arrays[name] = append([]int32(nil), a...)
	}
	return c
}

// Load reads array[index], reporting out-of-bounds accesses as errors just
// as the host memory interface would fault.
func (h *Host) Load(array string, index int32) (int32, error) {
	a, ok := h.Arrays[array]
	if !ok {
		return 0, fmt.Errorf("host: unknown array %q", array)
	}
	if index < 0 || int(index) >= len(a) {
		return 0, fmt.Errorf("host: %s[%d] out of bounds (len %d)", array, index, len(a))
	}
	return a[index], nil
}

// Store writes array[index] = value.
func (h *Host) Store(array string, index, value int32) error {
	a, ok := h.Arrays[array]
	if !ok {
		return fmt.Errorf("host: unknown array %q", array)
	}
	if index < 0 || int(index) >= len(a) {
		return fmt.Errorf("host: %s[%d] out of bounds (len %d)", array, index, len(a))
	}
	a[index] = value
	return nil
}

// Equal reports whether two heaps hold identical contents.
func (h *Host) Equal(o *Host) bool {
	if len(h.Arrays) != len(o.Arrays) {
		return false
	}
	for name, a := range h.Arrays {
		b, ok := o.Arrays[name]
		if !ok || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// OpStats counts dynamic operations during an interpreted run. The AMIDAR
// baseline cost model consumes these counts.
type OpStats struct {
	Arith    int64 // add/sub/logic/shift/neg/not
	Mul      int64
	Compare  int64
	Loads    int64 // array element loads
	Stores   int64 // array element stores
	LocalRd  int64 // scalar variable reads
	LocalWr  int64 // scalar variable writes
	Branches int64 // conditional branch decisions (if/while tests)
	Consts   int64
	Calls    int64 // kernel invocations (method calls)
}

// Total returns the total dynamic operation count.
func (s *OpStats) Total() int64 {
	return s.Arith + s.Mul + s.Compare + s.Loads + s.Stores + s.LocalRd + s.LocalWr + s.Branches + s.Consts + s.Calls
}

// ErrStepLimit is returned when a run exceeds the interpreter step budget,
// which usually indicates a non-terminating kernel.
var ErrStepLimit = errors.New("ir: interpreter step limit exceeded")

// Interp executes kernels directly. It is the semantic reference: the CGRA
// simulator must produce identical scalar results and heap contents.
type Interp struct {
	// MaxSteps bounds the number of executed statements (0 = default 500M).
	MaxSteps int64
	// Stats, when non-nil, accumulates dynamic operation counts.
	Stats *OpStats
	// Library resolves kernel calls; nil rejects calls.
	Library map[string]*Kernel

	steps int64
}

// Run executes k with the given scalar arguments against host memory.
// It returns the final values of all scalar parameters declared InOut.
func (in *Interp) Run(k *Kernel, args map[string]int32, host *Host) (map[string]int32, error) {
	limit := in.MaxSteps
	if limit == 0 {
		limit = 500_000_000
	}
	in.steps = 0
	env := map[string]int32{}
	for _, p := range k.Params {
		switch p.Kind {
		case ScalarIn, ScalarInOut:
			v, ok := args[p.Name]
			if !ok {
				return nil, fmt.Errorf("ir: missing argument %q", p.Name)
			}
			env[p.Name] = v
		case ArrayRef:
			if _, ok := host.Arrays[p.Name]; !ok {
				return nil, fmt.Errorf("ir: missing host array %q", p.Name)
			}
		}
	}
	if err := in.stmts(k, env, host, k.Body, limit); err != nil {
		return nil, err
	}
	out := map[string]int32{}
	for _, p := range k.Params {
		if p.Kind == ScalarInOut {
			out[p.Name] = env[p.Name]
		}
	}
	return out, nil
}

func (in *Interp) stmts(k *Kernel, env map[string]int32, host *Host, stmts []Stmt, limit int64) error {
	for _, s := range stmts {
		if err := in.stmt(k, env, host, s, limit); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) stmt(k *Kernel, env map[string]int32, host *Host, s Stmt, limit int64) error {
	in.steps++
	if in.steps > limit {
		return ErrStepLimit
	}
	switch s := s.(type) {
	case *Assign:
		v, err := in.eval(k, env, host, s.Value)
		if err != nil {
			return err
		}
		env[s.Name] = v
		if in.Stats != nil {
			in.Stats.LocalWr++
		}
		return nil
	case *Store:
		idx, err := in.eval(k, env, host, s.Index)
		if err != nil {
			return err
		}
		val, err := in.eval(k, env, host, s.Value)
		if err != nil {
			return err
		}
		if in.Stats != nil {
			in.Stats.Stores++
		}
		return host.Store(s.Array, idx, val)
	case *If:
		c, err := in.eval(k, env, host, s.Cond)
		if err != nil {
			return err
		}
		if in.Stats != nil {
			in.Stats.Branches++
		}
		if c != 0 {
			return in.stmts(k, env, host, s.Then, limit)
		}
		return in.stmts(k, env, host, s.Else, limit)
	case *While:
		for {
			c, err := in.eval(k, env, host, s.Cond)
			if err != nil {
				return err
			}
			if in.Stats != nil {
				in.Stats.Branches++
			}
			if c == 0 {
				return nil
			}
			if err := in.stmts(k, env, host, s.Body, limit); err != nil {
				return err
			}
			in.steps++
			if in.steps > limit {
				return ErrStepLimit
			}
		}
	case *For:
		if s.Init != nil {
			if err := in.stmt(k, env, host, s.Init, limit); err != nil {
				return err
			}
		}
		for {
			c, err := in.eval(k, env, host, s.Cond)
			if err != nil {
				return err
			}
			if in.Stats != nil {
				in.Stats.Branches++
			}
			if c == 0 {
				return nil
			}
			if err := in.stmts(k, env, host, s.Body, limit); err != nil {
				return err
			}
			if s.Post != nil {
				if err := in.stmt(k, env, host, s.Post, limit); err != nil {
					return err
				}
			}
			in.steps++
			if in.steps > limit {
				return ErrStepLimit
			}
		}
	case *Call:
		return in.call(k, env, host, s, limit)
	default:
		return fmt.Errorf("ir: unknown statement type %T", s)
	}
}

// call executes a kernel invocation: scalars copy in (and inout copies
// back), array parameters alias the caller's heap arrays.
func (in *Interp) call(k *Kernel, env map[string]int32, host *Host, c *Call, limit int64) error {
	callee := in.Library[c.Callee]
	if callee == nil {
		return fmt.Errorf("ir: call to unknown kernel %q", c.Callee)
	}
	if err := checkCall(k, callee, c, nil); err != nil {
		return fmt.Errorf("ir: %v", err)
	}
	if in.Stats != nil {
		in.Stats.Calls++
	}
	calleeEnv := map[string]int32{}
	calleeHost := NewHost()
	for i, p := range callee.Params {
		arg := c.Args[i]
		switch p.Kind {
		case ScalarIn, ScalarInOut:
			v, err := in.eval(k, env, host, arg)
			if err != nil {
				return err
			}
			calleeEnv[p.Name] = v
		case ArrayRef:
			name := arg.(*VarRef).Name
			a, ok := host.Arrays[name]
			if !ok {
				return fmt.Errorf("ir: call to %q: caller array %q missing from host", c.Callee, name)
			}
			calleeHost.Arrays[p.Name] = a // alias: same backing slice
		}
	}
	if err := in.stmts(callee, calleeEnv, calleeHost, callee.Body, limit); err != nil {
		return err
	}
	for i, p := range callee.Params {
		if p.Kind == ScalarInOut {
			env[c.Args[i].(*VarRef).Name] = calleeEnv[p.Name]
		}
	}
	return nil
}

func (in *Interp) eval(k *Kernel, env map[string]int32, host *Host, e Expr) (int32, error) {
	switch e := e.(type) {
	case *Const:
		if in.Stats != nil {
			in.Stats.Consts++
		}
		return e.Value, nil
	case *VarRef:
		v, ok := env[e.Name]
		if !ok {
			return 0, fmt.Errorf("ir: read of unassigned variable %q", e.Name)
		}
		if in.Stats != nil {
			in.Stats.LocalRd++
		}
		return v, nil
	case *Load:
		idx, err := in.eval(k, env, host, e.Index)
		if err != nil {
			return 0, err
		}
		if in.Stats != nil {
			in.Stats.Loads++
		}
		return host.Load(e.Array, idx)
	case *Un:
		x, err := in.eval(k, env, host, e.X)
		if err != nil {
			return 0, err
		}
		if in.Stats != nil {
			in.Stats.Arith++
		}
		switch e.Op {
		case OpNeg:
			return -x, nil
		case OpNot:
			return ^x, nil
		case OpLNot:
			if x == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("ir: unknown unary op %v", e.Op)
	case *Bin:
		// Short-circuit logical connectives.
		if e.Op.IsLogical() {
			x, err := in.eval(k, env, host, e.X)
			if err != nil {
				return 0, err
			}
			if in.Stats != nil {
				in.Stats.Compare++
			}
			if e.Op == OpLAnd && x == 0 {
				return 0, nil
			}
			if e.Op == OpLOr && x != 0 {
				return 1, nil
			}
			y, err := in.eval(k, env, host, e.Y)
			if err != nil {
				return 0, err
			}
			if y != 0 {
				return 1, nil
			}
			return 0, nil
		}
		x, err := in.eval(k, env, host, e.X)
		if err != nil {
			return 0, err
		}
		y, err := in.eval(k, env, host, e.Y)
		if err != nil {
			return 0, err
		}
		return EvalBin(e.Op, x, y, in.Stats)
	default:
		return 0, fmt.Errorf("ir: unknown expression type %T", e)
	}
}

// EvalBin applies a non-logical binary operator with Java-like 32-bit
// semantics (shift amounts masked to 5 bits, wrap-around arithmetic). It
// is the interpreter's definition, the oracle every execution path answers
// to, so it keeps its own switch instead of reading the op table the
// simulator executes (arch.Eval/arch.Holds); cdfg's TestEvalMatchesIR
// holds the table to this function on every operator cdfg lowers.
func EvalBin(op BinOp, x, y int32, stats *OpStats) (int32, error) {
	if stats != nil {
		switch {
		case op == OpMul:
			stats.Mul++
		case op.IsCompare():
			stats.Compare++
		default:
			stats.Arith++
		}
	}
	b2i := func(b bool) int32 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case OpAdd:
		return x + y, nil
	case OpSub:
		return x - y, nil
	case OpMul:
		return x * y, nil
	case OpAnd:
		return x & y, nil
	case OpOr:
		return x | y, nil
	case OpXor:
		return x ^ y, nil
	case OpShl:
		return x << (uint32(y) & 31), nil
	case OpShr:
		return x >> (uint32(y) & 31), nil
	case OpShrU:
		return int32(uint32(x) >> (uint32(y) & 31)), nil
	case OpLt:
		return b2i(x < y), nil
	case OpLe:
		return b2i(x <= y), nil
	case OpGt:
		return b2i(x > y), nil
	case OpGe:
		return b2i(x >= y), nil
	case OpEq:
		return b2i(x == y), nil
	case OpNe:
		return b2i(x != y), nil
	}
	return 0, fmt.Errorf("ir: unknown binary op %v", op)
}
