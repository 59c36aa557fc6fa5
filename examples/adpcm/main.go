// The paper's headline experiment (§VI): decode a 416-sample ADPCM stream
// on the CGRA, compare against pure-AMIDAR execution, and report the
// speedup. Profiling and the hot-sequence decision of Fig. 1 are shown by
// examples/onlinesynthesis; here the decoder is synthesized outright.
//
//	go run ./examples/adpcm
package main

import (
	"fmt"
	"log"

	"cgra/internal/adpcm"
	"cgra/internal/amidar"
	"cgra/internal/arch"
	"cgra/internal/pipeline"
)

func main() {
	// The input vector: 416 synthetic samples, ADPCM-encoded.
	samples := adpcm.GenerateSamples(adpcm.NumSamples)
	var enc adpcm.State
	codes, err := adpcm.Encode(samples, &enc)
	if err != nil {
		log.Fatal(err)
	}
	kernel := adpcm.Kernel()

	// The baseline: the decode on the AMIDAR host.
	baseline, err := amidar.Execute(kernel, amidar.DefaultCostModel(),
		adpcm.Args(adpcm.NumSamples, adpcm.State{}), adpcm.NewHost(codes, adpcm.NumSamples))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AMIDAR execution: %d cycles (paper: 926 k)\n\n", baseline.Cycles)

	// Synthesize for each evaluated composition and execute the decode on
	// the CGRA simulator.
	comps, err := arch.EvaluatedCompositions(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %9s %8s %8s %9s\n", "CGRA", "cycles", "contexts", "max RF", "speedup")
	var best float64
	var bestName string
	for _, comp := range comps {
		c, err := pipeline.Compile(kernel, comp, pipeline.Defaults())
		if err != nil {
			log.Fatalf("%s: %v", comp.Name, err)
		}
		host := adpcm.NewHost(codes, adpcm.NumSamples)
		res, err := pipeline.CheckAgainstInterpreter(kernel, c,
			adpcm.Args(adpcm.NumSamples, adpcm.State{}), host)
		if err != nil {
			log.Fatalf("%s: %v", comp.Name, err)
		}
		// The decoded samples are bit-exact against the reference
		// decoder (checked inside CheckAgainstInterpreter via the
		// interpreter, which package adpcm tests against the codec).
		speedup := float64(baseline.Cycles) / float64(res.Sim.TotalCycles())
		if speedup > best {
			best, bestName = speedup, comp.Name
		}
		fmt.Printf("%-10s %9d %8d %8d %8.1fx\n",
			comp.Name, res.Sim.TotalCycles(), c.UsedContexts(), c.MaxRFEntries(), speedup)
	}
	fmt.Printf("\nbest composition: %s at %.1fx (paper reports 7.3x on its FPGA testbed;\n", bestName, best)
	fmt.Println("see EXPERIMENTS.md for why the simulated substrate yields a larger ratio)")
}
