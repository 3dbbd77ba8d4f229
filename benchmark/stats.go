package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the linearly interpolated q-quantile of xs (0 <= q <= 1),
// or 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

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

// tailQuantile is the highest of the usual reporting percentiles that
// still has at least ten samples beyond it, so a tail is never read off
// a handful of points. It returns 0 when even the median has fewer.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.9, 0.75, 0.5} {
		if float64(n)*(1-q) >= 10-1e-9 { // 1-0.9 is a hair under 0.1

			return q
		}
	}
	return 0
}

// quartiles returns Q1, the median and Q3 by the "exclusive" method of
// Python's statistics.quantiles(xs, n=4), so spreads computed here and
// by a Python reader of the same records agree. It needs two samples;
// with one, all three are that sample.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
