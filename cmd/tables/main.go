// Command tables regenerates every table and figure of the paper's
// evaluation (§VI) from this repository's implementation, printing measured
// values next to the published ones.
//
// Usage:
//
//	tables            # everything
//	tables -table 2   # just Table II
//	tables -figure 12 # the control-flow summary of Fig. 12
//	tables -speedup   # the §VI headline comparison
//	tables -ablations # scheduler/flow ablations (this repo's additions)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"cgra/internal/arch"
	"cgra/internal/exper"
	"cgra/internal/pipeline"
)

func main() {
	table := flag.Int("table", 0, "print one table (1-4)")
	figure := flag.Int("figure", 0, "print one figure (12-14)")
	speedup := flag.Bool("speedup", false, "print the AMIDAR-vs-CGRA speedup")
	energy := flag.Bool("energy", false, "print the energy/area comparison")
	mul := flag.Bool("mul", false, "print the multiplier-latency experiment (FIR)")
	ablations := flag.Bool("ablations", false, "print the ablation studies")
	compositions := flag.Bool("compositions", false, "print the evaluated compositions (Fig. 13/14)")
	flag.Parse()

	all := *table == 0 && *figure == 0 && !*speedup && !*ablations && !*compositions && !*energy && !*mul

	s, err := exper.NewSetup()
	if err != nil {
		fatal(err)
	}
	if all || *table == 1 {
		printTableI(s)
	}
	if all || *table == 2 {
		printTableII(s)
	}
	if all || *table == 3 {
		printTableIII(s)
	}
	if all || *table == 4 {
		printTableIV(s)
	}
	if all || *figure == 12 {
		printFig12()
	}
	if all || *compositions || *figure == 13 || *figure == 14 {
		printCompositions()
	}
	if all || *speedup {
		printSpeedup(s)
	}
	if all || *energy {
		printEnergy(s)
	}
	if all || *mul {
		printMulLatency()
	}
	if all || *ablations {
		printAblations(s)
	}
	if all {
		printSchedulingTime(s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}

func i64(v int64) string { return strconv.FormatInt(v, 10) }
func f1(v float64) string {
	return strconv.FormatFloat(v, 'f', 1, 64)
}
func f2(v float64) string {
	return strconv.FormatFloat(v, 'f', 2, 64)
}

func printTableI(s *exper.Setup) {
	rows, err := exper.TableI(s)
	if err != nil {
		fatal(err)
	}
	fmt.Println("Table I — memory utilization of the ADPCM decoder schedules")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Comp,
			strconv.Itoa(r.UsedContexts), strconv.Itoa(r.PaperContexts),
			strconv.Itoa(r.MaxRF), strconv.Itoa(r.PaperMaxRF),
		})
	}
	fmt.Println(exper.FormatTable(
		[]string{"composition", "contexts", "(paper)", "max RF", "(paper)"}, cells))
}

func printTableII(s *exper.Setup) {
	rows, err := exper.TableII(s)
	if err != nil {
		fatal(err)
	}
	fmt.Println("Table II — ADPCM execution and synthesis estimates (block multiplier)")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Comp, i64(r.Cycles), i64(r.PaperCycles),
			f1(r.FreqMHz), f1(r.PaperFreq),
			f2(r.LUTLogicPct), f2(r.LUTMemPct), f2(r.DSPPct), f2(r.BRAMPct),
		})
	}
	fmt.Println(exper.FormatTable(
		[]string{"composition", "cycles", "(paper)", "MHz", "(paper)",
			"LUT%", "LUTmem%", "DSP%", "BRAM%"}, cells))
}

func printTableIII(s *exper.Setup) {
	rows, err := exper.TableIII(s)
	if err != nil {
		fatal(err)
	}
	fmt.Println("Table III — single-cycle multiplier variant")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Comp, i64(r.Cycles), i64(r.PaperCycles), f1(r.FreqMHz), f1(r.PaperFreq),
		})
	}
	fmt.Println(exper.FormatTable(
		[]string{"composition", "cycles", "(paper)", "MHz", "(paper)"}, cells))
}

func printTableIV(s *exper.Setup) {
	rows, err := exper.TableIV(s)
	if err != nil {
		fatal(err)
	}
	fmt.Println("Table IV — ADPCM decode wall-clock time (ms)")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Comp, f2(r.SingleMS), f2(r.PaperSingle), f2(r.DualMS), f2(r.PaperDual),
		})
	}
	fmt.Println(exper.FormatTable(
		[]string{"composition", "1-cyc mult", "(paper)", "2-cyc mult", "(paper)"}, cells))
}

func printFig12() {
	st, err := exper.Fig12()
	if err != nil {
		fatal(err)
	}
	fmt.Println("Fig. 12 — control-flow structure of the ADPCM decoder kernel")
	fmt.Printf("  loops: %d (max nesting depth %d)\n", st.Loops, st.MaxLoopDepth)
	fmt.Printf("  branched regions: %d, predicates: %d, predicated ops: %d\n",
		st.BranchedIfs, st.Predicates, st.PredicatedOps)
	fmt.Printf("  graph: %d nodes in %d blocks (%d pWRITEs, %d compares, %d loads, %d stores)\n\n",
		st.Nodes, st.Blocks, st.PWrites, st.Compares, st.DMALoads, st.DMAStores)
}

func printCompositions() {
	comps, err := arch.EvaluatedCompositions(2)
	if err != nil {
		fatal(err)
	}
	fmt.Println("Fig. 13/14 — evaluated compositions")
	var cells [][]string
	for _, c := range comps {
		edges := 0
		for _, pe := range c.PEs {
			edges += len(pe.Inputs)
		}
		cells = append(cells, []string{
			c.Name,
			strconv.Itoa(c.NumPEs()),
			strconv.Itoa(edges),
			fmt.Sprintf("%v", c.DMAPEs()),
			strconv.Itoa(len(c.SupportingPEs(archIMUL()))),
		})
	}
	fmt.Println(exper.FormatTable(
		[]string{"composition", "PEs", "directed edges", "DMA PEs", "multiplier PEs"}, cells))
}

func archIMUL() (op arch.OpCode) { return arch.IMUL }

func printSpeedup(s *exper.Setup) {
	res, err := exper.Speedup(s)
	if err != nil {
		fatal(err)
	}
	fmt.Println("Speedup over AMIDAR (§VI; paper: 926 k cycles baseline, 7.3x best)")
	fmt.Printf("  AMIDAR baseline: %d cycles\n", res.AMIDARCycles)
	fmt.Printf("  best composition: %s at %d cycles -> %.1fx\n\n",
		res.BestComp, res.BestCycles, res.Speedup)
}

func printEnergy(s *exper.Setup) {
	rows, err := exper.Energy(s)
	if err != nil {
		fatal(err)
	}
	fmt.Println("Energy/area (paper §VI-C: inhomogeneity saves area and most likely energy)")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Comp, f1(r.Dynamic), f2(r.AreaProxy), i64(r.Cycles),
		})
	}
	fmt.Println(exper.FormatTable(
		[]string{"composition", "dynamic energy", "LUT+DSP %", "cycles"}, cells))
}

func printMulLatency() {
	rows, err := exper.MulLatency()
	if err != nil {
		fatal(err)
	}
	fmt.Println("Multiplier latency on a multiplier-bound kernel (FIR; the ADPCM")
	fmt.Println("decoder is multiply-free, see EXPERIMENTS.md on Table III)")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Comp, i64(r.CyclesDual), i64(r.CyclesSingle)})
	}
	fmt.Println(exper.FormatTable(
		[]string{"composition", "2-cyc mult cycles", "1-cyc mult cycles"}, cells))
}

func printAblations(s *exper.Setup) {
	cases := []struct {
		name   string
		modify func(*pipeline.Options)
	}{
		{"A1 no attraction", exper.AblationNoAttraction},
		{"A2 no pWRITE fusing", exper.AblationNoFusing},
		{"A3 no loop unrolling", exper.AblationNoUnroll},
		{"A4 no CSE", exper.AblationNoCSE},
		{"A5 branch all ifs", exper.AblationBranchAllIfs},
	}
	fmt.Println("Ablations (ADPCM decode; default flow vs variant)")
	for _, c := range cases {
		rows, err := s.Ablation(c.modify, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println(" " + c.name)
		var cells [][]string
		for _, r := range rows {
			cells = append(cells, []string{
				r.Comp, i64(r.BaseCycles), i64(r.VariantCycles),
				strconv.Itoa(r.BaseContexts), strconv.Itoa(r.VariantContexts),
				strconv.Itoa(r.BaseCopies), strconv.Itoa(r.VariantCopies),
			})
		}
		fmt.Println(exper.FormatTable(
			[]string{"composition", "cycles", "variant", "ctx", "variant", "copies", "variant"}, cells))
	}
}

func printSchedulingTime(s *exper.Setup) {
	d, err := exper.SchedulingTime(s)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Scheduling + context generation: worst case %v over the 12 compositions\n", d)
	fmt.Println("(paper: at most 3.1 s on an Intel i7-6700)")
}
