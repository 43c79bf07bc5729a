package main

import (
	"math"
	"sort"
)

// samples collects the per-round readings of every metric by name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// value is the median of the metric's readings and how many there were: what
// a per-layer metric reports, so that one slow round (a snapshot landing on a
// busy disk, a GC cycle) cannot move it.
func (s samples) value(name string) (float64, int) {
	return median(s[name]), len(s[name])
}

// better is the quartile of the metric's readings on the better side (the
// upper one of a rate, the lower one of anything else): what an end-to-end
// metric reports. The sandbox's noise is one-sided. A reading is never faster
// than the code allows, and for half an hour at a time every second or third
// one is up to 60% slower; ten runs' medians of fifteen solves then spread by
// 60%, their lower quartiles by 7% (CALIBRATION.md). A quartile still wants a
// quarter of the readings to agree, which the best reading alone would not.
func (s samples) better(name string, higher bool) float64 {
	if higher {
		return quantile(sorted(s[name]), 0.75)
	}
	return quantile(sorted(s[name]), 0.25)
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile reads the p-quantile of ascending xs by nearest rank, the rule
// server.DriveReport uses, so wire and in-process percentiles agree.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return xs[idx]
}

// beyond counts the samples strictly above the p-quantile's rank: a
// percentile is only reported with enough of them.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}
