package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile must have
// strictly beyond it; a percentile with fewer is not reported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// fails unless at least minBeyond samples lie beyond the rank it picks.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile p=%v of %d samples", p, n)
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", 100*p, n, n-rank, minBeyond)
	}
	return quantile(xs, p), nil
}

// minSamples is the smallest sample count for which percentile(p) is
// reportable.
func minSamples(p float64) int {
	n := 1
	for n-int(math.Ceil(p*float64(n))) < minBeyond {
		n++
	}
	return n
}

// median is the middle value of xs (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile is the nearest-rank q-quantile of xs without the
// samples-beyond rule, for diagnostics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(0, int(math.Ceil(q*float64(len(s))))-1)]
}
