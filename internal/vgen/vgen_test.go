package vgen

import (
	"fmt"
	"strings"
	"testing"

	"cgra/internal/arch"
	"cgra/internal/ctxgen"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/pipeline"
)

func TestGenerateAllCompositions(t *testing.T) {
	all, err := arch.EvaluatedCompositions(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			files, err := Generate(c, Options{})
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			// top + (pe + alu) per PE + 4 static modules.
			want := 1 + 2*c.NumPEs() + 4
			if len(files) != want {
				t.Fatalf("got %d files, want %d", len(files), want)
			}
			src := WriteAll(files)
			if n, m := strings.Count(src, "\nmodule "), strings.Count(src, "module "); n == 0 || m == 0 {
				t.Fatal("no modules generated")
			}
			if strings.Count(src, "module ") != strings.Count(src, "endmodule") {
				t.Errorf("unbalanced module/endmodule in %s", c.Name)
			}
		})
	}
}

func TestGenerateTopWiresInterconnect(t *testing.T) {
	c, err := arch.HomogeneousMesh(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	files, err := Generate(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var top string
	for _, f := range files {
		if f.Name == "cgra_top.v" {
			top = f.Content
		}
	}
	if top == "" {
		t.Fatal("no top module")
	}
	// Every interconnect edge shows up as a route_in connection.
	for _, pe := range c.PEs {
		for k, src := range pe.Inputs {
			want := fmt.Sprintf(".route_in_%d(outl_%d)", k, src)
			if !strings.Contains(top, want) {
				t.Errorf("top missing connection %s for PE %d", want, pe.Index)
			}
		}
	}
	for _, want := range []string{"cbox #(", "ccu #(", "context_memory #("} {
		if !strings.Contains(top, want) {
			t.Errorf("top missing %q", want)
		}
	}
}

func TestGenerateALUMatchesOpSet(t *testing.T) {
	f, err := arch.IrregularComposition("F", 1)
	if err != nil {
		t.Fatal(err)
	}
	files, err := Generate(f, Options{DataWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]string{}
	for _, file := range files {
		byName[file.Name] = file.Content
	}
	// PE 0 has no multiplier on composition F; PE 2 does.
	if strings.Contains(byName["alu_0.v"], "// IMUL") {
		t.Error("alu_0 should not implement IMUL on composition F")
	}
	if !strings.Contains(byName["alu_2.v"], "// IMUL") {
		t.Error("alu_2 should implement IMUL on composition F")
	}
	// Compare ops drive the status output.
	if !strings.Contains(byName["alu_0.v"], "status = (a < b);") {
		t.Error("alu_0 missing IFLT status logic")
	}
	// The op table's arms get this PE's multiplier latency and the data
	// width filled in.
	if !strings.Contains(byName["alu_2.v"], "y = a * b; // 1-cycle multiplier") {
		t.Error("alu_2 IMUL arm does not state the single-cycle multiplier")
	}
	if !strings.Contains(byName["alu_0.v"], "// NOP\n        y = {16{1'b0}};") {
		t.Error("alu_0 NOP arm is not 16 bits of zero")
	}
	for name, src := range byName {
		if strings.HasPrefix(name, "alu_") && (strings.Contains(src, "WIDTH") || strings.Contains(src, "DUR")) {
			t.Errorf("%s keeps an unfilled op table placeholder", name)
		}
	}
}

func TestGenerateWithMinimizedWidths(t *testing.T) {
	comp, err := arch.HomogeneousMesh(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	k := mustParse(t, `
kernel k(array a, in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) { s = s + a[i]; i = i + 1; }
}`)
	c, err := pipeline.Compile(k, comp, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Generate(comp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := Generate(comp, Options{ContextWidths: c.Program.Formats})
	if err != nil {
		t.Fatal(err)
	}
	// Minimized context widths must not exceed the conservative ones.
	widthOf := func(files []File) int {
		for _, f := range files {
			if f.Name == "cgra_top.v" {
				idx := strings.Index(f.Content, "context_memory #(.WIDTH(")
				if idx < 0 {
					t.Fatal("no context memory instance")
				}
				var w int
				fmt.Sscanf(f.Content[idx:], "context_memory #(.WIDTH(%d)", &w)
				return w
			}
		}
		return -1
	}
	if widthOf(narrow) > widthOf(wide) {
		t.Errorf("bit-mask minimized width %d exceeds conservative %d", widthOf(narrow), widthOf(wide))
	}
	var formats []ctxgen.PEFormat = c.Program.Formats
	for i, f := range formats {
		if f.Width() <= 0 {
			t.Errorf("PE %d: non-positive context width", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c, err := arch.IrregularComposition("D", 2)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := Generate(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Generate(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if WriteAll(f1) != WriteAll(f2) {
		t.Error("generation is nondeterministic")
	}
}

func TestGenerateRejectsInvalid(t *testing.T) {
	c, err := arch.HomogeneousMesh(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.PEs[0].Inputs = []int{42}
	if _, err := Generate(c, Options{}); err == nil {
		t.Error("invalid composition accepted")
	}
}

func mustParse(t testing.TB, src string) *ir.Kernel {
	t.Helper()
	k, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return k
}
