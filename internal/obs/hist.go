package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// Hist is a two-sided log2-bucketed histogram of int64 samples (durations in
// nanoseconds, list lengths, queue depths, signed time offsets). Bucket k
// covers magnitudes [2^k, 2^(k+1)); negative samples land in a mirrored
// bucket set, and zero has its own counter. Observe is lock-free (atomic
// bucket increments) and nil-receiver safe, so a disabled histogram is a
// single branch.
type Hist struct {
	Name string
	Unit string // "ns" renders durations; anything else renders raw counts

	zero  atomic.Int64
	pos   [64]atomic.Int64
	neg   [64]atomic.Int64
	count atomic.Int64
	sum   atomic.Int64
}

// Observe records one sample. No-op on a nil receiver.
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	switch {
	case v == 0:
		h.zero.Add(1)
	case v > 0:
		h.pos[bits.Len64(uint64(v))-1].Add(1)
	default:
		h.neg[bits.Len64(uint64(-v))-1].Add(1)
	}
}

// ObserveDuration records a duration sample in nanoseconds.
func (h *Hist) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of samples (0 for nil).
func (h *Hist) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Bucket is one non-empty histogram bucket covering [Lo, Hi).
type Bucket struct {
	Lo, Hi int64
	Count  int64
}

// HistSnapshot is a point-in-time copy of a histogram, safe to format and
// serialize while recording continues.
type HistSnapshot struct {
	Name    string   `json:"name"`
	Unit    string   `json:"unit"`
	Count   int64    `json:"count"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the current bucket counts (ascending bucket order:
// most-negative first, then zero, then positive).
func (h *Hist) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Name: h.Name, Unit: h.Unit, Count: h.count.Load()}
	if s.Count > 0 {
		s.Mean = float64(h.sum.Load()) / float64(s.Count)
	}
	for k := 63; k >= 0; k-- {
		if c := h.neg[k].Load(); c > 0 {
			s.Buckets = append(s.Buckets, Bucket{Lo: -(int64(1) << uint(k+1)), Hi: -(int64(1) << uint(k)) + 1, Count: c})
		}
	}
	if c := h.zero.Load(); c > 0 {
		s.Buckets = append(s.Buckets, Bucket{Lo: 0, Hi: 1, Count: c})
	}
	for k := 0; k < 64; k++ {
		if c := h.pos[k].Load(); c > 0 {
			s.Buckets = append(s.Buckets, Bucket{Lo: int64(1) << uint(k), Hi: int64(1) << uint(k+1), Count: c})
		}
	}
	return s
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket midpoints.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	target := q * float64(s.Count)
	var seen float64
	for _, b := range s.Buckets {
		seen += float64(b.Count)
		if seen >= target {
			return float64(b.Lo+b.Hi) / 2
		}
	}
	last := s.Buckets[len(s.Buckets)-1]
	return float64(last.Lo+last.Hi) / 2
}

// Format renders the snapshot as an ASCII bar chart, one line per non-empty
// bucket, scaled to the largest bucket.
func (s HistSnapshot) Format(w io.Writer) {
	fmt.Fprintf(w, "%s (%d samples, mean %s):\n", s.Name, s.Count, s.fmtVal(s.Mean))
	if s.Count == 0 {
		return
	}
	var max int64 = 1
	for _, b := range s.Buckets {
		if b.Count > max {
			max = b.Count
		}
	}
	for _, b := range s.Buckets {
		bar := int(40 * b.Count / max)
		if bar == 0 {
			bar = 1
		}
		fmt.Fprintf(w, "  [%12s, %12s) %s %d\n",
			s.fmtVal(float64(b.Lo)), s.fmtVal(float64(b.Hi)),
			strings.Repeat("#", bar), b.Count)
	}
}

func (s HistSnapshot) fmtVal(v float64) string {
	if s.Unit == "ns" {
		return formatDur(v)
	}
	return fmt.Sprintf("%.4g", v)
}

func formatDur(ns float64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%s%.2fs", neg, ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%s%.2fms", neg, ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%s%.2fµs", neg, ns/1e3)
	default:
		return fmt.Sprintf("%s%.0fns", neg, ns)
	}
}
