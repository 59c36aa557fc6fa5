package kgen

import (
	"testing"

	"cgra/internal/arch"
	"cgra/internal/pipeline"
)

// TestDebugSeed35 compiles generated kernel 35 with zero-value pipeline
// options onto the inhomogeneous 8-PE composition F — the only cell that
// runs those options there — and holds the result to the interpreter.
func TestDebugSeed35(t *testing.T) {
	gk := New(35, Config{})
	comp, err := arch.IrregularComposition("F", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pipeline.Compile(gk.Kernel, comp, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.CheckAgainstInterpreter(gk.Kernel, c, gk.Args, gk.NewHost()); err != nil {
		t.Fatal(err)
	}
}
