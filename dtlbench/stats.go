package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is the tail rule for step times: the highest whole
// percentile P whose nearest-rank value still has at least ten of the n
// samples above it. P = floor(100(n-10)/n) satisfies ceil(P·n/100) <= n-10,
// and P+1 does not. Fewer than 20 samples cannot support a tail at or above
// the median, so they are an error.
func tailPercentile(n int) (int, error) {
	if n < 20 {
		return 0, fmt.Errorf("tail percentile needs at least 20 samples, have %d", n)
	}
	return 100 * (n - 10) / n, nil
}

// nearestRank returns the P-th percentile of xs by the nearest-rank method:
// the ceil(P·n/100)-th smallest value. xs is not modified.
func nearestRank(xs []float64, p int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := (p*len(s) + 99) / 100
	if r < 1 {
		r = 1
	}
	return s[r-1]
}
