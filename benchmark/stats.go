package main

import (
	"math"
	"sort"
)

// tailBeyond is the number of samples that must lie beyond a reported
// percentile: with fewer, the percentile is decided by a handful of
// outliers and does not repeat from run to run.
const tailBeyond = 10

// median returns the middle value of xs (mean of the two middle values
// for an even count) and 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// raw samples — never an interpolation between histogram buckets.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailLadder lists the percentiles the harness may report as a tail,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// minSamples is the smallest sample count at which percentile p has at
// least tailBeyond samples beyond it: n·(1−p/100) ≥ tailBeyond.
func minSamples(p float64) int {
	// The epsilon absorbs the binary rounding of 1−p/100 (p90 must need
	// 100 samples, not 101).
	return int(math.Ceil(tailBeyond/(1-p/100) - 1e-6))
}

// tail reports the want-th percentile of xs when the sample count
// supports it, and otherwise the highest percentile that it does support
// (the median when none does), together with the percentile actually
// used — a result never claims a p95 that ten samples did not decide.
func tail(xs []float64, want float64) (value, used float64) {
	n := len(xs)
	if n >= minSamples(want) {
		return percentile(xs, want), want
	}
	for _, p := range tailLadder {
		if p < want && n >= minSamples(p) {
			return percentile(xs, p), p
		}
	}
	return median(xs), 50
}
