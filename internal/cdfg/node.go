// Package cdfg builds the control and data flow graph (CDFG) the scheduler
// consumes (paper §V-A). A kernel becomes a tree of regions: straight-line
// blocks, loops (with a header block computing the loop condition), and
// branched conditionals. Dataflow-only conditionals are flattened into their
// enclosing block using speculation + predication: both arms' computations
// are speculated, and only the predicated writes (pWRITE) of the taken path
// commit (§V-B — the scheduler uses no phi nodes).
//
// Reads are always fused (§V-E): a node's operand can reference a local
// variable's home register-file slot directly; the scheduler resolves the
// routing at the consumer. Writes are explicit pWRITE nodes that the
// scheduler may fuse into the producing operation when it lands on the
// variable's home PE.
package cdfg

import (
	"fmt"
	"strings"

	"cgra/internal/arch"
)

// Kind distinguishes graph node classes.
type Kind int

// Node kinds.
const (
	// KOp is a machine operation (arithmetic, logic, compare, CONST,
	// LOAD, STORE, MOVE) executed on some PE's ALU.
	KOp Kind = iota
	// KPWrite is a predicated write of a value into a local variable's
	// home RF slot. The scheduler may fuse it into the producing node.
	KPWrite
)

func (k Kind) String() string {
	switch k {
	case KOp:
		return "op"
	case KPWrite:
		return "pwrite"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// OperandKind distinguishes the three operand sources.
type OperandKind int

// Operand kinds.
const (
	// FromNode reads the result value of another graph node.
	FromNode OperandKind = iota
	// FromLocal reads a local variable's home RF slot (a fused read).
	FromLocal
	// FromConst is an immediate; the scheduler materializes it with a
	// CONST operation and reuses the copy (constants and pseudo-constants
	// may be replicated freely, §V-D).
	FromConst
)

// Operand is one input of a node. Reads of locals are fused into the
// consumer: the scheduler, not the graph, decides where the value is
// fetched from (§V-E).
type Operand struct {
	Kind  OperandKind
	Node  *Node  // FromNode
	Local *Local // FromLocal
	Const int32  // FromConst
	// Version lists the pWRITE nodes that must have committed before this
	// FromLocal operand is read (read-after-write ordering). Multiple
	// entries occur after predicated if/else arms that both wrote the
	// local: the reader waits for every potential writer. Operands may
	// share one list: it is never modified in place.
	Version []*Node
}

func (o Operand) String() string {
	switch o.Kind {
	case FromNode:
		return fmt.Sprintf("n%d", o.Node.ID)
	case FromLocal:
		return "%" + o.Local.Name
	case FromConst:
		return fmt.Sprintf("#%d", o.Const)
	}
	return "?"
}

// Node is one CDFG operation.
type Node struct {
	ID   int
	Kind Kind
	// Op is the machine operation (KOp nodes). For KPWrite it is MOVE,
	// the opcode an unfused pWRITE executes as.
	Op arch.OpCode
	// Args are the data inputs, fused reads included.
	Args []Operand
	// Const is the immediate of a CONST op.
	Const int32
	// Array is the array parameter index of LOAD/STORE ops.
	Array int
	// Local is the target variable of a KPWrite.
	Local *Local
	// Pred is the path predicate under which this node's effect commits
	// (nil = unconditional). Only pWRITEs and DMA operations are
	// squashed; all other predicated nodes execute speculatively.
	Pred *Pred
	// Prereqs are strict ordering predecessors: each must have finished
	// (result available) before this node may issue. Used for
	// read-after-write on home slots and DMA ordering.
	Prereqs []*Node
	// WeakPrereqs are issue-order predecessors: each must have issued no
	// later than this node issues (same cycle allowed). Used for
	// write-after-read: the old value is still readable in the cycle its
	// home slot is overwritten.
	WeakPrereqs []*Node
	// Loop is the innermost loop region containing the node's block
	// (nil at top level). Set by the builder.
	Loop *Region
	// AliasOf, on an unpredicated KPWrite, names the node whose result
	// value the write commits. The committed slot value always equals
	// that node's value, so the scheduler may satisfy reads from either
	// location. Predicated writes have no alias (the slot may keep its
	// old value).
	AliasOf *Node
}

// IsCompare reports whether the node produces a status bit for the C-Box.
func (n *Node) IsCompare() bool { return n.Kind == KOp && n.Op.IsCompare() }

// IsDMA reports whether the node is a memory access.
func (n *Node) IsDMA() bool { return n.Kind == KOp && n.Op.IsDMA() }

// ProducesValue reports whether the node yields an RF value consumable by
// other nodes. Compares produce only a status; STOREs produce nothing.
func (n *Node) ProducesValue() bool {
	if n.Kind == KPWrite {
		return true
	}
	return !n.IsCompare() && n.Op != arch.STORE && n.Op != arch.NOP
}

func (n *Node) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n%d: ", n.ID)
	switch n.Kind {
	case KPWrite:
		fmt.Fprintf(&b, "pwrite %%%s", n.Local.Name)
	default:
		fmt.Fprintf(&b, "%v", n.Op)
		if n.Op == arch.CONST {
			fmt.Fprintf(&b, " #%d", n.Const)
		}
		if n.IsDMA() {
			fmt.Fprintf(&b, " arr%d", n.Array)
		}
	}
	for _, a := range n.Args {
		fmt.Fprintf(&b, " %s", a)
	}
	if n.Pred != nil {
		fmt.Fprintf(&b, " @p%d", n.Pred.ID)
	}
	return b.String()
}

// Pred is a path predicate: the conjunction of an optional parent predicate
// with one branch condition (possibly negated). The C-Box realizes each
// predicate as one condition-memory slot (§V-H: "for nested branches and
// loops the stored condition bit is a conjunction of the outer and current
// condition").
type Pred struct {
	ID     int
	Parent *Pred
	Cond   *CondExpr
	Negate bool // true for the else-path
}

// Depth returns the nesting depth of the predicate (1 for a top-level if).
func (p *Pred) Depth() int {
	d := 0
	for q := p; q != nil; q = q.Parent {
		d++
	}
	return d
}

func (p *Pred) String() string {
	s := fmt.Sprintf("p%d", p.ID)
	if p.Negate {
		s += "!"
	}
	if p.Parent != nil {
		s = p.Parent.String() + "&" + s
	}
	return s
}

// CondOp connects condition sub-expressions.
type CondOp int

// Condition connectives.
const (
	CondLeaf CondOp = iota
	CondAnd
	CondOr
)

// CondExpr is a boolean expression over compare nodes. The C-Box evaluates
// it one status bit per cycle (§IV-A2); the scheduler linearizes the tree
// into C-Box micro-operations. Negations are folded into the compare opcode
// at build time (De Morgan), so leaves are never negated.
type CondExpr struct {
	Op   CondOp
	Cmp  *Node // CondLeaf: a compare node
	X, Y *CondExpr
}

// Leaves appends all compare nodes of the expression to dst, left to right.
func (c *CondExpr) Leaves(dst []*Node) []*Node {
	if c == nil {
		return dst
	}
	if c.Op == CondLeaf {
		return append(dst, c.Cmp)
	}
	dst = c.X.Leaves(dst)
	return c.Y.Leaves(dst)
}

// NumLeaves returns the number of compare leaves; evaluating the expression
// occupies the C-Box for that many cycles.
func (c *CondExpr) NumLeaves() int { return len(c.Leaves(nil)) }

func (c *CondExpr) String() string {
	if c == nil {
		return "true"
	}
	switch c.Op {
	case CondLeaf:
		return fmt.Sprintf("s(n%d)", c.Cmp.ID)
	case CondAnd:
		return fmt.Sprintf("(%s & %s)", c.X, c.Y)
	case CondOr:
		return fmt.Sprintf("(%s | %s)", c.X, c.Y)
	}
	return "?"
}

// Block is a straight-line DFG: a set of nodes whose only control flow is
// predication. Node order is program order (used for deterministic
// scheduling and for ordering-edge construction).
type Block struct {
	ID    int
	Nodes []*Node
	// Cond is the block's condition value when the block is a loop header
	// or the condition block of a branched if; nil otherwise.
	Cond *CondExpr
}

func (b *Block) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "block b%d:\n", b.ID)
	for _, n := range b.Nodes {
		fmt.Fprintf(&sb, "  %s\n", n)
	}
	if b.Cond != nil {
		fmt.Fprintf(&sb, "  cond: %s\n", b.Cond)
	}
	return sb.String()
}
