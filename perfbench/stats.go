package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks; NaN for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile picks the highest of p99, p95 and p90 that has at least
// ten samples beyond it, so a reported tail is never one or two
// outliers. ok is false when even p90 has fewer than ten.
func tailQuantile(n int) (p float64, ok bool) {
	for _, p := range []float64{0.99, 0.95, 0.90} {
		if float64(n)*(1-p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
