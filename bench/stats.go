package main

import (
	"math"
	"sort"
	"time"
)

// summary is how every timing leaves the harness: the median over rounds
// (or over operations), the quartiles around it and the sample count, so a
// reader can tell a steady number from a lucky one.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize sorts a copy of xs and reports its median and quartiles.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates between the closest ranks of a sorted sample at
// position q·(n+1), the "exclusive" method Python's statistics.quantiles
// defaults to, so a spread computed here equals one computed there.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q*float64(len(s)+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	lo := int(math.Floor(pos))
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quietLow and quietHigh are a run's quiet decile of rounds: the 10th
// percentile of per-round times, the 90th of per-round rates (the best round
// when there are fewer than ten). The end-to-end timings of the workloads
// whose rounds all do the same work report it instead of the median round.
// Whatever else a shared host runs only ever adds time, in bursts that can
// cover most of a run: ten runs of one seed while the machine drifted had
// median sweeps of compile_list 200 to 241 ms, quiet deciles 185 to 201 ms.
// The single best round resists as well but is a luckier pick (its p90
// ranged over 21 % in those runs, the decile's over 11 %).
func quietLow(xs []float64) float64  { return quantile(sorted(xs), 0.10) }
func quietHigh(xs []float64) float64 { return quantile(sorted(xs), 0.90) }

// percentile is the nearest-rank percentile of an unsorted latency sample:
// the smallest value with at least p of the sample at or below it, so
// p99 of 1600 samples leaves exactly 16 beyond it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// geomean averages ratios and per-kernel rates: one slow kernel moves it by
// its share, not by its absolute size. Non-positive entries are a caller
// bug; they are skipped so a report still prints.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// spread is the interquartile range as a share of the median — the number
// a metric's bound is compared with.
func spread(xs []float64) float64 {
	s := summarize(xs)
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
