package arch

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestOpByNameRoundTrip(t *testing.T) {
	for _, op := range AllOpCodes() {
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if _, ok := OpByName("IDIV"); ok {
		t.Error("IDIV should not exist (paper excludes division)")
	}
}

func TestOpClassification(t *testing.T) {
	for _, op := range []OpCode{IFLT, IFLE, IFGT, IFGE, IFEQ, IFNE} {
		if !op.IsCompare() {
			t.Errorf("%v should be a compare", op)
		}
	}
	for _, op := range []OpCode{IADD, MOVE, LOAD, NOP} {
		if op.IsCompare() {
			t.Errorf("%v should not be a compare", op)
		}
	}
	if !LOAD.IsDMA() || !STORE.IsDMA() || IADD.IsDMA() {
		t.Error("DMA classification wrong")
	}
	if OpCode(250).IsCompare() || OpCode(-1).IsDMA() {
		t.Error("an undefined opcode classified as defined")
	}
}

// TestOpTableComplete asserts every opcode has a row: a name and the
// Verilog vgen emits for it.
func TestOpTableComplete(t *testing.T) {
	for _, op := range AllOpCodes() {
		if opTable[op].name == "" || op.Verilog() == "" {
			t.Errorf("opcode %d has no complete op table row: %+v", int(op), opTable[op])
		}
	}
	if OpCode(250).Verilog() != "" {
		t.Error("an undefined opcode has Verilog")
	}
}

func TestMeshStructure(t *testing.T) {
	c, err := Mesh(MeshOptions{Rows: 3, Cols: 3})
	if err != nil {
		t.Fatalf("mesh: %v", err)
	}
	if c.NumPEs() != 9 {
		t.Fatalf("NumPEs = %d", c.NumPEs())
	}
	// Centre PE 4 sees all four neighbours.
	want := []int{1, 3, 5, 7}
	got := c.PEs[4].Inputs
	if len(got) != len(want) {
		t.Fatalf("centre inputs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("centre inputs = %v, want %v", got, want)
		}
	}
	// Corner PE 0 sees two.
	if len(c.PEs[0].Inputs) != 2 {
		t.Errorf("corner inputs = %v", c.PEs[0].Inputs)
	}
	// Mesh interconnect is symmetric.
	for _, pe := range c.PEs {
		for _, src := range pe.Inputs {
			if !c.PEs[src].CanReadFrom(pe.Index) {
				t.Errorf("mesh asymmetry: %d reads %d but not vice versa", pe.Index, src)
			}
		}
	}
}

func TestEvaluatedCompositions(t *testing.T) {
	all, err := EvaluatedCompositions(2)
	if err != nil {
		t.Fatalf("EvaluatedCompositions: %v", err)
	}
	if len(all) != 12 {
		t.Fatalf("got %d compositions, want 12", len(all))
	}
	wantPEs := []int{4, 6, 8, 9, 12, 16, 8, 8, 8, 8, 8, 8}
	for i, c := range all {
		if c.NumPEs() != wantPEs[i] {
			t.Errorf("%s: %d PEs, want %d", c.Name, c.NumPEs(), wantPEs[i])
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if n := len(c.DMAPEs()); n == 0 || n > MaxDMAPEs {
			t.Errorf("%s: %d DMA PEs", c.Name, n)
		}
	}
}

func TestIrregularF(t *testing.T) {
	f, err := IrregularComposition("F", 2)
	if err != nil {
		t.Fatalf("F: %v", err)
	}
	mulPEs := f.SupportingPEs(IMUL)
	if len(mulPEs) != 2 {
		t.Fatalf("F has %d multiplier PEs, want 2 (paper: DSP util -75%%)", len(mulPEs))
	}
	d, err := IrregularComposition("D", 2)
	if err != nil {
		t.Fatalf("D: %v", err)
	}
	// F shares D's interconnect.
	for i := range f.PEs {
		if len(f.PEs[i].Inputs) != len(d.PEs[i].Inputs) {
			t.Errorf("PE %d: F inputs %v != D inputs %v", i, f.PEs[i].Inputs, d.PEs[i].Inputs)
		}
	}
	// B must have strictly less interconnect than D.
	b, err := IrregularComposition("B", 2)
	if err != nil {
		t.Fatalf("B: %v", err)
	}
	edges := func(c *Composition) int {
		n := 0
		for _, pe := range c.PEs {
			n += len(pe.Inputs)
		}
		return n
	}
	if edges(b) >= edges(d) {
		t.Errorf("B edges (%d) should be < D edges (%d)", edges(b), edges(d))
	}
}

func TestSetMulDuration(t *testing.T) {
	c, err := HomogeneousMesh(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := c.PEs[0].Duration(IMUL); d != 2 {
		t.Fatalf("block multiplier duration = %d, want 2", d)
	}
	clone := c.Clone()
	clone.SetMulDuration(1)
	if d := clone.PEs[0].Duration(IMUL); d != 1 {
		t.Errorf("single-cycle duration = %d", d)
	}
	if d := c.PEs[0].Duration(IMUL); d != 2 {
		t.Errorf("Clone does not isolate op maps: original duration changed to %d", d)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Composition {
		c, err := HomogeneousMesh(4, 2)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := base()
	c.PEs[1].Inputs = []int{99}
	if err := c.Validate(); err == nil {
		t.Error("out-of-range input accepted")
	}
	c = base()
	c.PEs[1].Inputs = []int{1}
	if err := c.Validate(); err == nil {
		t.Error("self-loop accepted")
	}
	c = base()
	c.PEs[1].Inputs = []int{0, 0}
	if err := c.Validate(); err == nil {
		t.Error("duplicate input accepted")
	}
	c8, err := HomogeneousMesh(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range c8.PEs {
		pe.HasDMA = true
		pe.Ops[LOAD] = OpInfo{Energy: 1, Duration: 2}
		pe.Ops[STORE] = OpInfo{Energy: 1, Duration: 2}
	}
	if err := c8.Validate(); err == nil {
		t.Error("5+ DMA PEs accepted (limit is 4)")
	}
	c = base()
	for _, pe := range c.PEs {
		pe.HasDMA = false
		delete(pe.Ops, LOAD)
		delete(pe.Ops, STORE)
	}
	if err := c.Validate(); err == nil {
		t.Error("composition without DMA accepted")
	}
	c = base()
	c.PEs[0].HasDMA = false // but still supports LOAD
	if err := c.Validate(); err == nil {
		t.Error("inconsistent DMA flag accepted")
	}
	c = base()
	c.ContextSize = 0
	if err := c.Validate(); err == nil {
		t.Error("zero context size accepted")
	}
	c = base()
	c.PEs[2].Ops[IADD] = OpInfo{Energy: 1, Duration: 0}
	if err := c.Validate(); err == nil {
		t.Error("zero-duration op accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	all, err := EvaluatedCompositions(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all {
		data, err := MarshalComposition(c)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.Name, err)
		}
		back, err := ParseComposition(data, nil)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.Name, err)
		}
		if back.Name != c.Name || back.NumPEs() != c.NumPEs() ||
			back.ContextSize != c.ContextSize || back.CBoxSlots != c.CBoxSlots {
			t.Errorf("%s: round trip changed header", c.Name)
		}
		for i := range c.PEs {
			a, b := c.PEs[i], back.PEs[i]
			if a.RegfileSize != b.RegfileSize || a.HasDMA != b.HasDMA ||
				len(a.Inputs) != len(b.Inputs) || len(a.Ops) != len(b.Ops) {
				t.Errorf("%s: PE %d differs after round trip", c.Name, i)
			}
			for op, info := range a.Ops {
				if b.Ops[op] != info {
					t.Errorf("%s: PE %d op %v differs", c.Name, i, op)
				}
			}
		}
	}
}

func TestParseCompositionLibraryRefs(t *testing.T) {
	lib := map[string]json.RawMessage{
		"PE_no_mem": json.RawMessage(`{
			"name": "PE_no_mem", "Regfile_size": 32,
			"IADD": {"energy": 1.0, "duration": 1},
			"IFGE": {"energy": 1.1, "duration": 1}
		}`),
		"PE_mem": json.RawMessage(`{
			"name": "PE_mem", "Regfile_size": 32, "DMA": true,
			"IADD": {"energy": 1.0, "duration": 1},
			"LOAD": {"energy": 2.5, "duration": 2},
			"STORE": {"energy": 2.5, "duration": 2}
		}`),
	}
	doc := `{
		"name": "CGRA1",
		"Number_of_PEs": 2,
		"PEs": {"0": "PE_mem", "1": "PE_no_mem"},
		"Interconnect": {"0": [1], "1": [0]},
		"Context_memory_length": 256,
		"CBox_slots": 32
	}`
	c, err := ParseComposition([]byte(doc), lib)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !c.PEs[0].HasDMA || c.PEs[1].HasDMA {
		t.Error("DMA flags wrong")
	}
	if !c.PEs[1].Supports(IFGE) {
		t.Error("PE 1 should support IFGE")
	}
}

func TestParseCompositionErrors(t *testing.T) {
	cases := []string{
		`{`, // bad JSON
		`{"name":"x","Number_of_PEs":0,"PEs":{},"Context_memory_length":1,"CBox_slots":1}`,
		`{"name":"x","Number_of_PEs":2,"PEs":{"0":"missing"},"Context_memory_length":1,"CBox_slots":1}`,
		`{"name":"x","Number_of_PEs":1,"PEs":{"0":{"name":"p","Regfile_size":4,"BOGUS":{"energy":1,"duration":1}}},"Context_memory_length":1,"CBox_slots":1}`,
		`{"name":"x","Number_of_PEs":1,"PEs":{"7":{"name":"p","Regfile_size":4}},"Context_memory_length":1,"CBox_slots":1}`,
	}
	for i, doc := range cases {
		if _, err := ParseComposition([]byte(doc), nil); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestFanOutAndDegree(t *testing.T) {
	c, err := HomogeneousMesh(4, 2) // 2x2
	if err != nil {
		t.Fatal(err)
	}
	fo := c.FanOut(0)
	if len(fo) != 2 {
		t.Errorf("FanOut(0) = %v", fo)
	}
	if c.Degree(0) != 4 { // 2 in + 2 out
		t.Errorf("Degree(0) = %d", c.Degree(0))
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("9 PEs")
	if err != nil || c.NumPEs() != 9 {
		t.Errorf("ByName(9 PEs): %v", err)
	}
	c, err = ByName("8 PEs D")
	if err != nil || c.NumPEs() != 8 {
		t.Errorf("ByName(8 PEs D): %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown name")
	}
}

func TestOpSpectrumSorted(t *testing.T) {
	f := func(seed uint8) bool {
		c, err := HomogeneousMesh(8, 2)
		if err != nil {
			return false
		}
		// Remove a pseudo-random subset of ops from PE 1.
		for i, op := range c.OpSpectrum() {
			if (uint8(i)+seed)%3 == 0 && op != NOP {
				delete(c.PEs[1].Ops, op)
			}
		}
		spec := c.OpSpectrum()
		for i := 1; i < len(spec); i++ {
			if spec[i-1] >= spec[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSupportingPEs(t *testing.T) {
	f, err := IrregularComposition("F", 2)
	if err != nil {
		t.Fatal(err)
	}
	adders := f.SupportingPEs(IADD)
	if len(adders) != 8 {
		t.Errorf("all PEs should add, got %v", adders)
	}
	loaders := f.SupportingPEs(LOAD)
	if len(loaders) != len(f.DMAPEs()) {
		t.Errorf("LOAD support %v != DMA PEs %v", loaders, f.DMAPEs())
	}
}

func TestLoadCompositionFile(t *testing.T) {
	c, err := LoadCompositionFile("../../compositions/cgra4.json", "")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if c.Name != "CGRA4" || c.NumPEs() != 4 {
		t.Errorf("loaded %s with %d PEs", c.Name, c.NumPEs())
	}
	if got := c.DMAPEs(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("DMA PEs = %v", got)
	}
	if !c.PEs[1].Supports(IMUL) {
		t.Error("library PE missing IMUL")
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestLoadPELibraryErrors(t *testing.T) {
	if _, err := LoadPELibrary("/nonexistent-dir"); err == nil {
		t.Error("missing directory accepted")
	}
}
