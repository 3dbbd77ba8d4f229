package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{7.5, 1.25, 3.0, 9.0, 2.5, 6.0, 4.75}, [3]float64{2.5, 4.75, 7.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20}, {0.95, 38.5},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
	if xs[0] != 40 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.9}, {100, 0.9},
		{56, 0.75}, {39, 0.5}, {20, 0.5}, {19, 0}, {0, 0},
	} {
		got := tailQuantile(c.n)
		if got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
		if got > 0 && float64(c.n)*(1-got) < 10-1e-9 {
			t.Errorf("tailQuantile(%d) = %g leaves fewer than ten samples beyond", c.n, got)
		}
	}
}
