package kgen

import (
	"testing"

	"cgra/internal/ir"
)

func TestGeneratedKernelsValidate(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		gk := New(seed, Config{})
		if err := ir.Validate(gk.Kernel); err != nil {
			t.Errorf("seed %d: invalid kernel: %v", seed, err)
		}
	}
}

func TestGeneratedKernelsTerminate(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		gk := New(seed, Config{})
		interp := &ir.Interp{MaxSteps: 5_000_000}
		if _, err := interp.Run(gk.Kernel, gk.Args, gk.NewHost()); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := New(42, Config{})
	b := New(42, Config{})
	ia, ib := &ir.Interp{}, &ir.Interp{}
	oa, err := ia.Run(a.Kernel, a.Args, a.NewHost())
	if err != nil {
		t.Fatal(err)
	}
	ob, err := ib.Run(b.Kernel, b.Args, b.NewHost())
	if err != nil {
		t.Fatal(err)
	}
	if oa["acc"] != ob["acc"] {
		t.Errorf("same seed, different results: %d vs %d", oa["acc"], ob["acc"])
	}
}
