package main

import (
	"math"
	"slices"
)

// quantile returns the nearest-rank q-quantile of xs, or 0 when xs is
// empty (a layer the workload never reaches).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value of xs (the mean of the two middle values
// when len(xs) is even), or 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
