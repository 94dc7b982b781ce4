package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.9, 4.6}, {0.25, 2}} {
		if got := percentile(v, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %g, want %g", c.q, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 0.5) != 0 || median([]float64{7}) != 7 {
		t.Error("empty or single-value input")
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 3, 1, 4, 2}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %g, want 1", got)
	}
}
