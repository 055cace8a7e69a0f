package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method, the one Python's statistics.quantiles(xs, n=4)
// uses, so spreads computed here match the ones the driver computes.
// With fewer than two samples both are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// quantileSorted returns the q-quantile (nearest rank) of an ascending
// slice.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// highestPercentile picks the highest of the usual tail percentiles
// that still has at least ten samples beyond it among n samples, so a
// reported tail is never a single outlier. It returns 0.5 when even
// p90 is unsupported.
func highestPercentile(n int) float64 {
	for _, p := range []float64{0.9999, 0.999, 0.99, 0.95, 0.9} {
		if float64(n)*(1-p) >= 10-1e-6 { // 1-p is not exact in binary
			return p
		}
	}
	return 0.5
}
