package main

import (
	"math"
	"sort"
)

// sample is one timed operation: when it started, relative to the start
// of the measured window, and how long it took.
type sample struct {
	at  int64 // ns since window start
	dur int64 // ns
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, which must be ascending and non-empty: the smallest value with
// at least p % of the values at or below it.
func percentile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortedDurs(samples []sample) []int64 {
	out := make([]int64, len(samples))
	for i, s := range samples {
		out[i] = s.dur
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// subWindowTail cuts the window into parts equal consecutive sub-windows
// by start time, takes the nearest-rank p-th percentile of each non-empty
// one and returns their median. One stall lands in one sub-window, so it
// moves the reported tail far less than it moves the percentile of the
// whole window, which is what lets the tail repeat from run to run.
func subWindowTail(samples []sample, window int64, parts int, p float64) float64 {
	buckets := make([][]int64, parts)
	for _, s := range samples {
		i := int(s.at * int64(parts) / window)
		if i < 0 {
			i = 0
		}
		if i >= parts {
			i = parts - 1
		}
		buckets[i] = append(buckets[i], s.dur)
	}
	var tails []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		tails = append(tails, float64(percentile(b, p)))
	}
	return median(tails)
}
