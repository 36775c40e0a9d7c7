package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of an ascending
// slice by the nearest-rank rule: the smallest sample with at least p% of
// the samples at or below it. It returns 0 for an empty slice.
func percentile[T uint32 | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the median of the values (the mean of the two middle ones
// for an even count) without reordering the caller's slice; 0 when empty.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// relSpread is the run-to-run spread the benchmark's bounds are set
// against: the distance between the first and third quartile as a share of
// the median. Quartiles follow Python's statistics.quantiles(values, n=4)
// (the exclusive method), which is what the acceptance driver computes.
// Fewer than two values, or a zero median, give 0.
func relSpread(values []float64) float64 {
	n := len(values)
	med := median(values)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile, k in 1..3
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// failedFrac is failed ÷ attempted, 0 when nothing was attempted.
func failedFrac(failed, attempted uint64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
