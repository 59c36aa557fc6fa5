package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func readRecords(path string) ([]*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*record
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return out, nil
}

// verdict compares the runs of one metric on one workload in two result
// sets. Timings agree when the medians differ by no more than the bound; a
// set whose own runs spread wider than the bound cannot settle that, and
// is reported unresolved instead. Exact metrics are compared run by run,
// seed by seed, and must be identical.
func verdict(d metricDef, a, b map[int64][]float64) (ma, mb, diff float64, v string) {
	var va, vb []float64
	for _, xs := range a {
		va = append(va, xs...)
	}
	for _, xs := range b {
		vb = append(vb, xs...)
	}
	ma, mb = median(va), median(vb)
	if ma != 0 {
		diff = (mb - ma) / math.Abs(ma)
	}
	if d.Exact {
		for seed, xs := range a {
			for _, x := range append(append([]float64(nil), xs...), b[seed]...) {
				if x != xs[0] {
					return ma, mb, diff, "disagree"
				}
			}
		}
		return ma, mb, diff, "agree"
	}
	switch {
	case math.Max(spread(va), spread(vb)) > d.Bound:
		v = "unresolved"
	case math.Abs(diff) > d.Bound:
		v = "disagree"
	default:
		v = "agree"
	}
	return ma, mb, diff, v
}

// compareFiles prints one row per workload × bounded metric and returns
// the number of rows that disagree.
func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return 0, err
	}
	// workload → metric → seed → values, untraced runs only: end-to-end
	// numbers never come from a traced run.
	index := func(recs []*record) map[string]map[string]map[int64][]float64 {
		out := map[string]map[string]map[int64][]float64{}
		for _, r := range recs {
			if r.Trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string]map[int64][]float64{}
			}
			for name, v := range r.Metrics {
				if out[r.Workload][name] == nil {
					out[r.Workload][name] = map[int64][]float64{}
				}
				out[r.Workload][name][r.Seed] = append(out[r.Workload][name][r.Seed], v)
			}
		}
		return out
	}
	ia, ib := index(a), index(b)
	var workloads []string
	for name := range ia {
		if ib[name] != nil {
			workloads = append(workloads, name)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return 0, fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	disagree := 0
	fmt.Fprintf(w, "%-15s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), ledgers...) {
			ma, mb := ia[wl][d.Name], ib[wl][d.Name]
			if len(ma) == 0 || len(mb) == 0 {
				continue
			}
			x, y, diff, v := verdict(d, ma, mb)
			bound := fmt.Sprintf("%.0f%%", d.Bound*100)
			if d.Exact {
				bound = "exact"
			}
			fmt.Fprintf(w, "%-15s %-16s %14.6g %14.6g %+7.1f%% %6s  %s\n", wl, d.Name, x, y, diff*100, bound, v)
			if v == "disagree" {
				disagree++
			}
		}
	}
	return disagree, nil
}
