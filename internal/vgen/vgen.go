// Package vgen generates a synthesizable-style Verilog description of a
// CGRA composition, following the paper's code generator (§IV-B, Fig. 7):
// variable structures (top level, PEs, ALUs) are emitted individually from
// templates because each PE's operation set and input multiplexer differ,
// while static structures (register file, context memory, CCU, C-Box) are
// emitted once with parameters.
//
// The output is a set of .v files as strings. It is a structural model of
// the architecture in DESIGN.md §5 — faithful module hierarchy, port lists
// and control signals — standing in for the authors' (unpublished) template
// library. It is not run through Vivado here; package synth models the
// synthesis results instead.
package vgen

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cgra/internal/arch"
	"cgra/internal/ctxgen"
)

// Options tunes generation.
type Options struct {
	// ContextWidths supplies minimized per-PE context widths (e.g. from a
	// generated program); when nil, conservative widths from the full RF
	// size are used.
	ContextWidths []ctxgen.PEFormat
	// DataWidth is the word size (default 32).
	DataWidth int
}

// File is one generated source file.
type File struct {
	Name    string
	Content string
}

// Generate emits the full Verilog description of a composition.
func Generate(c *arch.Composition, o Options) ([]File, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("vgen: %v", err)
	}
	if o.DataWidth == 0 {
		o.DataWidth = 32
	}
	g := &gen{comp: c, opts: o}
	var files []File
	files = append(files, File{Name: "cgra_top.v", Content: g.top()})
	for _, pe := range c.PEs {
		files = append(files, File{Name: fmt.Sprintf("pe_%d.v", pe.Index), Content: g.pe(pe)})
		files = append(files, File{Name: fmt.Sprintf("alu_%d.v", pe.Index), Content: g.alu(pe)})
	}
	files = append(files, File{Name: "regfile.v", Content: g.regfile()})
	files = append(files, File{Name: "context_memory.v", Content: g.contextMemory()})
	files = append(files, File{Name: "ccu.v", Content: g.ccu()})
	files = append(files, File{Name: "cbox.v", Content: g.cbox()})
	return files, nil
}

type gen struct {
	comp *arch.Composition
	opts Options
}

func (g *gen) ctxWidth(pe int) int {
	if g.opts.ContextWidths != nil && pe < len(g.opts.ContextWidths) {
		return g.opts.ContextWidths[pe].Width()
	}
	// Conservative width from structural maxima.
	p := g.comp.PEs[pe]
	addr := bitsFor(p.RegfileSize)
	w := bitsFor(len(p.Ops)+1) + 2*(2+addr+bitsFor(len(p.Inputs))) + (1 + addr) + 1 + (1 + addr)
	if p.Supports(arch.CONST) {
		w += g.opts.DataWidth
	}
	if p.HasDMA {
		w += 4
	}
	return w
}

func bitsFor(n int) int {
	if n <= 1 {
		return 1
	}
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

func header(b *strings.Builder, what string) {
	fmt.Fprintf(b, "// %s\n// generated by cgra/vgen — do not edit\n\n", what)
}

// top emits the top-level module: PE instances, the interconnect as an
// array of wires, context memories, C-Box and CCU (paper Fig. 2 / Fig. 5).
func (g *gen) top() string {
	var b strings.Builder
	header(&b, "CGRA top level: composition "+g.comp.Name)
	dw := g.opts.DataWidth
	n := g.comp.NumPEs()
	ccntW := bitsFor(g.comp.ContextSize)

	fmt.Fprintf(&b, "module cgra_top (\n")
	fmt.Fprintf(&b, "  input  wire clk,\n  input  wire rst,\n")
	fmt.Fprintf(&b, "  input  wire start,\n")
	fmt.Fprintf(&b, "  input  wire [%d:0] start_ccnt,\n", ccntW-1)
	fmt.Fprintf(&b, "  // token-network interface for live-in/live-out variables\n")
	fmt.Fprintf(&b, "  input  wire [%d:0] livein_data,\n", dw-1)
	fmt.Fprintf(&b, "  input  wire [%d:0] livein_pe,\n", bitsFor(n)-1)
	fmt.Fprintf(&b, "  input  wire livein_valid,\n")
	fmt.Fprintf(&b, "  output wire [%d:0] liveout_data,\n", dw-1)
	fmt.Fprintf(&b, "  output wire done,\n")
	fmt.Fprintf(&b, "  // DMA port to the host heap\n")
	fmt.Fprintf(&b, "  output wire [%d:0] dma_addr,\n", dw-1)
	fmt.Fprintf(&b, "  output wire dma_we,\n")
	fmt.Fprintf(&b, "  inout  wire [%d:0] dma_data\n", dw-1)
	fmt.Fprintf(&b, ");\n\n")

	fmt.Fprintf(&b, "  wire [%d:0] ccnt;\n", ccntW-1)
	fmt.Fprintf(&b, "  wire branch_sel;\n")
	fmt.Fprintf(&b, "  wire pred_pe;\n")
	fmt.Fprintf(&b, "  // routing outputs (outl) of all PEs\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  wire [%d:0] outl_%d;\n", dw-1, i)
	}
	fmt.Fprintf(&b, "  wire [%d:0] status;\n\n", n-1)

	for _, pe := range g.comp.PEs {
		cw := g.ctxWidth(pe.Index)
		fmt.Fprintf(&b, "  // ---- PE %d (%s) ----\n", pe.Index, pe.Name)
		fmt.Fprintf(&b, "  wire [%d:0] ctx_%d;\n", cw-1, pe.Index)
		fmt.Fprintf(&b, "  context_memory #(.WIDTH(%d), .DEPTH(%d)) ctxmem_%d (\n",
			cw, g.comp.ContextSize, pe.Index)
		fmt.Fprintf(&b, "    .clk(clk), .addr(ccnt), .data(ctx_%d)\n  );\n", pe.Index)
		fmt.Fprintf(&b, "  pe_%d pe_inst_%d (\n", pe.Index, pe.Index)
		fmt.Fprintf(&b, "    .clk(clk), .rst(rst),\n")
		fmt.Fprintf(&b, "    .ctx(ctx_%d),\n", pe.Index)
		for k, src := range pe.Inputs {
			fmt.Fprintf(&b, "    .route_in_%d(outl_%d),\n", k, src)
		}
		fmt.Fprintf(&b, "    .pred(pred_pe),\n")
		fmt.Fprintf(&b, "    .livein_data(livein_data),\n")
		fmt.Fprintf(&b, "    .livein_valid(livein_valid && livein_pe == %d),\n", pe.Index)
		fmt.Fprintf(&b, "    .status(status[%d]),\n", pe.Index)
		fmt.Fprintf(&b, "    .outl(outl_%d)\n", pe.Index)
		fmt.Fprintf(&b, "  );\n\n")
	}

	fmt.Fprintf(&b, "  // ---- C-Box ----\n")
	fmt.Fprintf(&b, "  cbox #(.SLOTS(%d), .NUM_PE(%d), .CCNT_WIDTH(%d), .DEPTH(%d)) cbox_inst (\n",
		g.comp.CBoxSlots, n, ccntW, g.comp.ContextSize)
	fmt.Fprintf(&b, "    .clk(clk), .rst(rst), .ccnt(ccnt),\n")
	fmt.Fprintf(&b, "    .status(status),\n")
	fmt.Fprintf(&b, "    .out_ctrl(branch_sel), .out_pe(pred_pe)\n  );\n\n")

	fmt.Fprintf(&b, "  // ---- CCU ----\n")
	fmt.Fprintf(&b, "  ccu #(.CCNT_WIDTH(%d), .DEPTH(%d)) ccu_inst (\n", ccntW, g.comp.ContextSize)
	fmt.Fprintf(&b, "    .clk(clk), .rst(rst), .start(start), .start_ccnt(start_ccnt),\n")
	fmt.Fprintf(&b, "    .branch_sel(branch_sel), .ccnt(ccnt), .done(done)\n  );\n\n")
	fmt.Fprintf(&b, "  assign liveout_data = outl_0;\n")
	fmt.Fprintf(&b, "  assign dma_addr = {%d{1'b0}};\n", dw)
	fmt.Fprintf(&b, "  assign dma_we = 1'b0;\n")
	fmt.Fprintf(&b, "endmodule\n")
	return b.String()
}

// pe emits one PE module (variable structure: operand multiplexers sized by
// the PE's input list, Fig. 3).
func (g *gen) pe(pe *arch.PE) string {
	var b strings.Builder
	header(&b, fmt.Sprintf("PE %d (%s): RF %d entries, %d routing inputs",
		pe.Index, pe.Name, pe.RegfileSize, len(pe.Inputs)))
	dw := g.opts.DataWidth
	cw := g.ctxWidth(pe.Index)
	addr := bitsFor(pe.RegfileSize)

	fmt.Fprintf(&b, "module pe_%d (\n", pe.Index)
	fmt.Fprintf(&b, "  input  wire clk,\n  input  wire rst,\n")
	fmt.Fprintf(&b, "  input  wire [%d:0] ctx,\n", cw-1)
	for k := range pe.Inputs {
		fmt.Fprintf(&b, "  input  wire [%d:0] route_in_%d,\n", dw-1, k)
	}
	fmt.Fprintf(&b, "  input  wire pred,\n")
	fmt.Fprintf(&b, "  input  wire [%d:0] livein_data,\n", dw-1)
	fmt.Fprintf(&b, "  input  wire livein_valid,\n")
	fmt.Fprintf(&b, "  output wire status,\n")
	fmt.Fprintf(&b, "  output wire [%d:0] outl\n", dw-1)
	fmt.Fprintf(&b, ");\n\n")

	fmt.Fprintf(&b, "  // context word fields\n")
	fmt.Fprintf(&b, "  wire [%d:0] op_sel      = ctx[%d:0];\n", bitsFor(len(pe.Ops)+1)-1, bitsFor(len(pe.Ops)+1)-1)
	fmt.Fprintf(&b, "  wire [1:0]  a_mode;\n  wire [1:0]  b_mode;\n")
	fmt.Fprintf(&b, "  wire [%d:0] a_addr;\n  wire [%d:0] b_addr;\n", addr-1, addr-1)
	fmt.Fprintf(&b, "  wire        wr_en;\n")
	fmt.Fprintf(&b, "  wire [%d:0] wr_addr;\n", addr-1)
	fmt.Fprintf(&b, "  wire        predicated;\n")
	fmt.Fprintf(&b, "  wire        outl_en;\n")
	fmt.Fprintf(&b, "  wire [%d:0] outl_addr;\n\n", addr-1)

	fmt.Fprintf(&b, "  wire [%d:0] rf_a, rf_b, rf_outl;\n", dw-1)
	fmt.Fprintf(&b, "  wire [%d:0] alu_y;\n", dw-1)
	fmt.Fprintf(&b, "  // RF input multiplexer: ALU result or live-in from the host\n")
	fmt.Fprintf(&b, "  wire [%d:0] rf_d = livein_valid ? livein_data : alu_y;\n", dw-1)
	fmt.Fprintf(&b, "  wire commit = wr_en && (!predicated || pred) || livein_valid;\n\n")

	fmt.Fprintf(&b, "  regfile #(.WIDTH(%d), .DEPTH(%d)) rf (\n", dw, pe.RegfileSize)
	fmt.Fprintf(&b, "    .clk(clk),\n")
	fmt.Fprintf(&b, "    .raddr_a(a_addr), .rdata_a(rf_a),\n")
	fmt.Fprintf(&b, "    .raddr_b(b_addr), .rdata_b(rf_b),\n")
	fmt.Fprintf(&b, "    .raddr_l(outl_addr), .rdata_l(rf_outl),\n")
	fmt.Fprintf(&b, "    .wen(commit), .waddr(wr_addr), .wdata(rf_d)\n  );\n\n")

	fmt.Fprintf(&b, "  // operand multiplexers over own RF and neighbour routing outputs\n")
	fmt.Fprintf(&b, "  reg [%d:0] opa, opb;\n", dw-1)
	emitOperandMux := func(name string) {
		fmt.Fprintf(&b, "  always @(*) begin\n")
		fmt.Fprintf(&b, "    case (%s_mode)\n", name)
		fmt.Fprintf(&b, "      2'd1: op%s = rf_%s;\n", name, name)
		fmt.Fprintf(&b, "      2'd2: begin\n")
		fmt.Fprintf(&b, "        case (%s_addr[%d:0])\n", name, maxI(bitsFor(len(pe.Inputs))-1, 0))
		for k := range pe.Inputs {
			fmt.Fprintf(&b, "          %d: op%s = route_in_%d;\n", k, name, k)
		}
		fmt.Fprintf(&b, "          default: op%s = {%d{1'b0}};\n", name, dw)
		fmt.Fprintf(&b, "        endcase\n      end\n")
		fmt.Fprintf(&b, "      default: op%s = {%d{1'b0}};\n", name, dw)
		fmt.Fprintf(&b, "    endcase\n  end\n")
	}
	emitOperandMux("a")
	emitOperandMux("b")
	b.WriteString("\n")

	fmt.Fprintf(&b, "  alu_%d alu (\n", pe.Index)
	fmt.Fprintf(&b, "    .op(op_sel), .a(opa), .b(opb), .imm(ctx[%d:%d]),\n", cw-1, cw-g.opts.DataWidth)
	fmt.Fprintf(&b, "    .y(alu_y), .status(status)\n  );\n\n")

	fmt.Fprintf(&b, "  // distinct routing output: data moves without disturbing the ALU\n")
	fmt.Fprintf(&b, "  assign outl = rf_outl;\n\n")
	fmt.Fprintf(&b, "  // remaining context field unpacking elided to assigns\n")
	fmt.Fprintf(&b, "  assign {a_mode, b_mode, a_addr, b_addr, wr_en, wr_addr, predicated, outl_en, outl_addr} = ctx[%d:%d];\n",
		2+2+4*addr+3+maxI(bitsFor(len(pe.Inputs)), 1)-1, 0)
	fmt.Fprintf(&b, "endmodule\n")
	return b.String()
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// alu emits one PE's ALU: one case arm per implemented operation, the op
// table's Verilog (arch.OpCode.Verilog) with the data width and the op's
// duration on this PE filled in (the paper: "each operation is realized
// separately in the ALU. This cannot be done efficiently using parameters.").
func (g *gen) alu(pe *arch.PE) string {
	var b strings.Builder
	header(&b, fmt.Sprintf("ALU of PE %d: %d operations", pe.Index, len(pe.Ops)))
	dw := g.opts.DataWidth
	opBits := bitsFor(len(pe.Ops) + 1)

	fmt.Fprintf(&b, "module alu_%d (\n", pe.Index)
	fmt.Fprintf(&b, "  input  wire [%d:0] op,\n", opBits-1)
	fmt.Fprintf(&b, "  input  wire signed [%d:0] a,\n", dw-1)
	fmt.Fprintf(&b, "  input  wire signed [%d:0] b,\n", dw-1)
	fmt.Fprintf(&b, "  input  wire [%d:0] imm,\n", dw-1)
	fmt.Fprintf(&b, "  output reg  [%d:0] y,\n", dw-1)
	fmt.Fprintf(&b, "  output reg  status\n")
	fmt.Fprintf(&b, ");\n\n")

	ops := make([]arch.OpCode, 0, len(pe.Ops))
	for op := range pe.Ops {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })

	fmt.Fprintf(&b, "  always @(*) begin\n")
	fmt.Fprintf(&b, "    y = {%d{1'b0}};\n    status = 1'b0;\n", dw)
	fmt.Fprintf(&b, "    case (op)\n")
	for i, op := range ops {
		arm := strings.NewReplacer("WIDTH", strconv.Itoa(dw), "DUR", strconv.Itoa(pe.Duration(op))).Replace(op.Verilog())
		fmt.Fprintf(&b, "      %d: begin // %v\n        %s\n      end\n", i+1, op, arm)
	}
	fmt.Fprintf(&b, "      default: y = {%d{1'b0}};\n", dw)
	fmt.Fprintf(&b, "    endcase\n  end\nendmodule\n")
	return b.String()
}

// regfile emits the static register-file module (parameterized).
func (g *gen) regfile() string {
	var b strings.Builder
	header(&b, "register file: 2 operand read ports + routing read port")
	b.WriteString(`module regfile #(
  parameter WIDTH = 32,
  parameter DEPTH = 128,
  parameter AW = $clog2(DEPTH)
) (
  input  wire clk,
  input  wire [AW-1:0] raddr_a,
  output wire [WIDTH-1:0] rdata_a,
  input  wire [AW-1:0] raddr_b,
  output wire [WIDTH-1:0] rdata_b,
  input  wire [AW-1:0] raddr_l,
  output wire [WIDTH-1:0] rdata_l,
  input  wire wen,
  input  wire [AW-1:0] waddr,
  input  wire [WIDTH-1:0] wdata
);
  reg [WIDTH-1:0] mem [0:DEPTH-1];
  assign rdata_a = mem[raddr_a];
  assign rdata_b = mem[raddr_b];
  assign rdata_l = mem[raddr_l];
  always @(posedge clk) begin
    if (wen) mem[waddr] <= wdata;
  end
endmodule
`)
	return b.String()
}

// contextMemory emits the static context memory module.
func (g *gen) contextMemory() string {
	var b strings.Builder
	header(&b, "context memory: one per PE, addressed by the global CCNT")
	b.WriteString(`module context_memory #(
  parameter WIDTH = 64,
  parameter DEPTH = 256,
  parameter AW = $clog2(DEPTH)
) (
  input  wire clk,
  input  wire [AW-1:0] addr,
  output reg [WIDTH-1:0] data
);
  reg [WIDTH-1:0] mem [0:DEPTH-1];
  always @(posedge clk) begin
    data <= mem[addr];
  end
endmodule
`)
	return b.String()
}

// ccu emits the context control unit (paper Fig. 5): increment, or adopt
// the alternative CCNT on (conditional) branches.
func (g *gen) ccu() string {
	var b strings.Builder
	header(&b, "context control unit: CCNT generation with (conditional) jumps")
	b.WriteString(`module ccu #(
  parameter CCNT_WIDTH = 8,
  parameter DEPTH = 256
) (
  input  wire clk,
  input  wire rst,
  input  wire start,
  input  wire [CCNT_WIDTH-1:0] start_ccnt,
  input  wire branch_sel,
  output reg  [CCNT_WIDTH-1:0] ccnt,
  output wire done
);
  // jump table: {mode[1:0], target}; mode 0 = inc, 1 = jump, 2 = cond jump
  reg [CCNT_WIDTH+1:0] jumps [0:DEPTH-1];
  wire [1:0] mode = jumps[ccnt][CCNT_WIDTH+1:CCNT_WIDTH];
  wire [CCNT_WIDTH-1:0] target = jumps[ccnt][CCNT_WIDTH-1:0];
  assign done = (mode == 2'd1) && (target == ccnt);
  always @(posedge clk) begin
    if (rst) begin
      ccnt <= {CCNT_WIDTH{1'b0}};
    end else if (start) begin
      ccnt <= start_ccnt;
    end else begin
      case (mode)
        2'd1: ccnt <= target;
        2'd2: ccnt <= branch_sel ? target : ccnt + 1'b1;
        default: ccnt <= ccnt + 1'b1;
      endcase
    end
  end
endmodule
`)
	return b.String()
}

// cbox emits the condition box (paper Fig. 4): one incoming status per
// cycle combined with a stored condition, plus read ports for predication
// (out_pe) and branch selection (out_ctrl).
func (g *gen) cbox() string {
	var b strings.Builder
	header(&b, "C-Box: condition memory with status combination")
	b.WriteString(`module cbox #(
  parameter SLOTS = 32,
  parameter NUM_PE = 8,
  parameter CCNT_WIDTH = 8,
  parameter DEPTH = 256,
  parameter SW = $clog2(SLOTS),
  // C-Box context word: consume | status_sel | logic | a | inv_a | b |
  // inv_b | wen | waddr | out_pe_addr | out_ctrl_addr | out_ctrl_inv
  parameter CTXW = 1 + $clog2(NUM_PE) + 2 + (SW+1)*2 + 1 + SW + SW + SW + 1
) (
  input  wire clk,
  input  wire rst,
  input  wire [CCNT_WIDTH-1:0] ccnt,
  input  wire [NUM_PE-1:0] status,
  output wire out_pe,
  output wire out_ctrl
);
  // The C-Box is controlled by its own context memory (paper Fig. 2).
  reg [CTXW-1:0] ctx_mem [0:DEPTH-1];
  wire [CTXW-1:0] ctx = ctx_mem[ccnt];
  wire consume                     = ctx[CTXW-1];
  wire [$clog2(NUM_PE)-1:0] ssel   = ctx[CTXW-2 -: $clog2(NUM_PE)];
  wire [1:0] logic_op              = ctx[CTXW-2-$clog2(NUM_PE) -: 2];
  wire [SW-1:0] addr_a             = ctx[CTXW-4-$clog2(NUM_PE) -: SW];
  wire inv_a                       = ctx[CTXW-4-$clog2(NUM_PE)-SW];
  wire [SW-1:0] addr_b             = ctx[CTXW-5-$clog2(NUM_PE)-SW -: SW];
  wire inv_b                       = ctx[CTXW-5-$clog2(NUM_PE)-2*SW];
  wire wen                         = ctx[CTXW-6-$clog2(NUM_PE)-2*SW];
  wire [SW-1:0] waddr              = ctx[3*SW+1 -: SW];
  wire [SW-1:0] out_pe_addr        = ctx[2*SW+1 -: SW];
  wire [SW-1:0] out_ctrl_addr      = ctx[SW+1 -: SW];
  wire out_ctrl_inv                = ctx[0];

  reg cond_mem [0:SLOTS-1];
  wire a_val = cond_mem[addr_a] ^ inv_a;
  wire b_val = cond_mem[addr_b] ^ inv_b;
  wire in_val = consume ? status[ssel] : a_val;
  wire second = consume ? a_val : b_val;
  reg result;
  always @(*) begin
    case (logic_op)
      2'd1: result = in_val & second;
      2'd2: result = in_val | second;
      default: result = in_val;
    endcase
  end
  assign out_pe = cond_mem[out_pe_addr];
  assign out_ctrl = cond_mem[out_ctrl_addr] ^ out_ctrl_inv;
  always @(posedge clk) begin
    if (wen) cond_mem[waddr] <= result;
  end
endmodule
`)
	return b.String()
}

// WriteAll concatenates all files into one source string (for single-file
// consumers and tests).
func WriteAll(files []File) string {
	var b strings.Builder
	for _, f := range files {
		fmt.Fprintf(&b, "// ===== %s =====\n%s\n", f.Name, f.Content)
	}
	return b.String()
}
