// Package arch models CGRA compositions: the set of processing elements
// (PEs), the operations each PE implements (with per-op energy and duration),
// the irregular interconnect, and the sizing of context memories and the
// C-Box condition memory. It corresponds to the paper's "CGRA model" that
// both the scheduler and the Verilog generator consume (Fig. 7 / Fig. 10).
package arch

import "fmt"

// OpCode enumerates the machine operations a PE can implement. The names
// follow the paper's JSON example (IADD, ISUB, IMUL, IFGE, IFLT, NOP, ...):
// integer arithmetic/logic, status-producing compares evaluated by the C-Box,
// register moves, immediate loads, and DMA memory accesses.
type OpCode int

// Machine operations.
const (
	NOP OpCode = iota
	// MOVE copies a value (own RF or routed from a neighbour) into the RF.
	// It implements the scheduler's copy insertion and unfused pWRITEs.
	MOVE
	// CONST writes an immediate from the context into the RF.
	CONST
	IADD
	ISUB
	IMUL
	IAND
	IOR
	IXOR
	ISHL
	ISHR  // arithmetic shift right
	IUSHR // logical shift right
	INEG
	INOT
	// Status-producing compares; the result bit is routed to the C-Box.
	IFLT
	IFLE
	IFGT
	IFGE
	IFEQ
	IFNE
	// DMA operations (only on PEs with a DMA interface).
	LOAD
	STORE

	numOpCodes int = iota
)

// opClass is the data path an operation occupies.
type opClass int8

const (
	classNone    opClass = iota // NOP: the slot is idle
	classALU                    // writes an ALU result (Eval) to the RF
	classCompare                // produces a status bit (Holds) for the C-Box
	classDMA                    // accesses the host heap
)

// opRow is one operation's entry in the op table.
type opRow struct {
	name  string
	class opClass
	// verilog is the ALU case arm vgen emits. WIDTH stands for the data
	// width and DUR for the op's duration on the PE.
	verilog string
}

// opTable is the op table: the one definition of every opcode's name, data
// path and Verilog, next to Eval and Holds, the one Go definition of what
// it computes.
var opTable = [numOpCodes]opRow{
	NOP:   {"NOP", classNone, "y = {WIDTH{1'b0}};"},
	MOVE:  {"MOVE", classALU, "y = a;"},
	CONST: {"CONST", classALU, "y = imm;"},
	IADD:  {"IADD", classALU, "y = a + b;"},
	ISUB:  {"ISUB", classALU, "y = a - b;"},
	IMUL:  {"IMUL", classALU, "y = a * b; // DUR-cycle multiplier"},
	IAND:  {"IAND", classALU, "y = a & b;"},
	IOR:   {"IOR", classALU, "y = a | b;"},
	IXOR:  {"IXOR", classALU, "y = a ^ b;"},
	ISHL:  {"ISHL", classALU, "y = a <<< b[4:0];"},
	ISHR:  {"ISHR", classALU, "y = a >>> b[4:0];"},
	IUSHR: {"IUSHR", classALU, "y = $unsigned(a) >> b[4:0];"},
	INEG:  {"INEG", classALU, "y = -a;"},
	INOT:  {"INOT", classALU, "y = ~a;"},
	IFLT:  {"IFLT", classCompare, "status = (a < b);"},
	IFLE:  {"IFLE", classCompare, "status = (a <= b);"},
	IFGT:  {"IFGT", classCompare, "status = (a > b);"},
	IFGE:  {"IFGE", classCompare, "status = (a >= b);"},
	IFEQ:  {"IFEQ", classCompare, "status = (a == b);"},
	IFNE:  {"IFNE", classCompare, "status = (a != b);"},
	LOAD:  {"LOAD", classDMA, "y = a; // handled by the DMA interface"},
	STORE: {"STORE", classDMA, "y = a; // handled by the DMA interface"},
}

// Eval computes an ALU operation on 32-bit two's-complement operands:
// arithmetic wraps and shift counts are masked to their low five bits.
// MOVE and CONST pass a through; the caller passes CONST's immediate as a.
// Eval stays small enough to inline into the simulator's walks.
func Eval(op OpCode, a, b int32) int32 {
	switch op {
	case IADD:
		return a + b
	case ISUB:
		return a - b
	case IMUL:
		return a * b
	case IAND:
		return a & b
	case IOR:
		return a | b
	case IXOR:
		return a ^ b
	case ISHL:
		return a << (uint32(b) & 31)
	case ISHR:
		return a >> (uint32(b) & 31)
	case IUSHR:
		return int32(uint32(a) >> (uint32(b) & 31))
	case INEG:
		return -a
	case INOT:
		return ^a
	}
	return a
}

// Holds evaluates a compare operation: the status bit it sends the C-Box.
func Holds(op OpCode, a, b int32) bool {
	switch op {
	case IFLT:
		return a < b
	case IFLE:
		return a <= b
	case IFGT:
		return a > b
	case IFGE:
		return a >= b
	case IFEQ:
		return a == b
	}
	return a != b // IFNE
}

// Valid reports whether op is a defined opcode.
func (op OpCode) Valid() bool { return op >= 0 && int(op) < numOpCodes }

func (op OpCode) String() string {
	if op.Valid() {
		return opTable[op].name
	}
	return fmt.Sprintf("OpCode(%d)", int(op))
}

// OpByName resolves the JSON spelling of an operation.
func OpByName(name string) (OpCode, bool) {
	for i, row := range opTable {
		if row.name == name {
			return OpCode(i), true
		}
	}
	return NOP, false
}

// AllOpCodes returns every defined opcode, in declaration order.
func AllOpCodes() []OpCode {
	all := make([]OpCode, numOpCodes)
	for i := range all {
		all[i] = OpCode(i)
	}
	return all
}

// IsCompare reports whether op produces a status bit for the C-Box.
func (op OpCode) IsCompare() bool { return op.Valid() && opTable[op].class == classCompare }

// IsDMA reports whether op accesses host memory via the DMA interface.
func (op OpCode) IsDMA() bool { return op.Valid() && opTable[op].class == classDMA }

// Verilog returns the ALU case arm that implements op, with WIDTH standing
// for the data width and DUR for the op's duration on the PE.
func (op OpCode) Verilog() string {
	if op.Valid() {
		return opTable[op].verilog
	}
	return ""
}

// OpInfo carries the per-PE implementation parameters of one operation,
// matching the paper's PE description ("IADD": {"energy":1.0, "duration":1}).
type OpInfo struct {
	// Energy is the relative energy per execution (arbitrary units).
	Energy float64
	// Duration is the operation latency in cycles (>= 1). The paper
	// evaluates both a two-cycle block multiplier and a single-cycle
	// multiplier (Table II vs Table III).
	Duration int
}
