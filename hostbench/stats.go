package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
// A tail figure read off fewer samples is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples and whether at
// least minBeyond samples lie strictly beyond its rank. samples need not
// be sorted; it is not modified.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := sortedCopy(samples)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return s[idx], n-1-idx >= minBeyond
}

// tail returns the highest percentile up to q that has minBeyond samples
// beyond it, for latencies whose sample count the workload does not fix.
// It returns false when that percentile would fall below the median.
func tail(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n < 2*minBeyond {
		return 0, false
	}
	if lim := float64(n-minBeyond) / float64(n); q > lim {
		q = lim
	}
	return percentile(samples, q)
}

// median returns the middle sample (the mean of the two middle ones for an
// even count), or 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sortedCopy(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}
