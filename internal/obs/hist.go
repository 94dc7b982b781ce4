package obs

import (
	"fmt"
	"io"
	"math/bits"
	"strings"
)

// Hist is a two-sided log2-bucketed histogram of int64 samples (durations in
// nanoseconds, signed time offsets, counts). Bucket k covers magnitudes
// [2^k, 2^(k+1)); negative samples land in a mirrored bucket set, and zero
// has its own counter. It is filled and formatted on one goroutine: the trace
// report's arrival-offset chart.
type Hist struct {
	Name string
	Unit string // "ns" renders durations; anything else renders raw counts

	zero     int64
	pos, neg [64]int64
	count    int64
	sum      int64
}

// Observe records one sample.
func (h *Hist) Observe(v int64) {
	h.count++
	h.sum += v
	switch {
	case v == 0:
		h.zero++
	case v > 0:
		h.pos[bits.Len64(uint64(v))-1]++
	default:
		h.neg[bits.Len64(uint64(-v))-1]++
	}
}

// Count returns the number of samples.
func (h *Hist) Count() int64 { return h.count }

// Format renders the histogram as an ASCII bar chart, one line per non-empty
// bucket in ascending order (most negative first, then zero, then positive),
// scaled to the largest bucket.
func (h *Hist) Format(w io.Writer) {
	var mean float64
	if h.count > 0 {
		mean = float64(h.sum) / float64(h.count)
	}
	fmt.Fprintf(w, "%s (%d samples, mean %s):\n", h.Name, h.count, h.fmtVal(mean))
	if h.count == 0 {
		return
	}
	type bucket struct{ lo, hi, n int64 } // [lo, hi)
	var bs []bucket
	for k := 63; k >= 0; k-- {
		if n := h.neg[k]; n > 0 {
			bs = append(bs, bucket{-(int64(1) << uint(k+1)), -(int64(1) << uint(k)) + 1, n})
		}
	}
	if h.zero > 0 {
		bs = append(bs, bucket{0, 1, h.zero})
	}
	for k := 0; k < 64; k++ {
		if n := h.pos[k]; n > 0 {
			bs = append(bs, bucket{int64(1) << uint(k), int64(1) << uint(k+1), n})
		}
	}
	var top int64 = 1
	for _, b := range bs {
		top = max(top, b.n)
	}
	for _, b := range bs {
		bar := max(1, int(40*b.n/top))
		fmt.Fprintf(w, "  [%12s, %12s) %s %d\n",
			h.fmtVal(float64(b.lo)), h.fmtVal(float64(b.hi)), strings.Repeat("#", bar), b.n)
	}
}

func (h *Hist) fmtVal(v float64) string {
	if h.Unit == "ns" {
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
