package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of v by linear interpolation
// between order statistics; 0 for an empty slice. v is not modified.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is how the
// benchmark contract measures spread. Fewer than two values have no spread.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		m := median(v)
		return m, m
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return ratio(q3-q1, math.Abs(median(v)))
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return ratio(s, float64(len(v)))
}
