// Package psort provides a parallel LSD radix sort for (space-filling-curve
// key, particle index) pairs.
//
// Sorting particles along the SFC every step is the first stage of the
// paper's GPU pipeline ("Sorting SFC" row of Table II); here it runs on the
// host worker pool that stands in for the device. The sort is stable, works
// on 64-bit keys 8 bits at a time, and skips passes whose byte is constant
// across the whole input (common: the high byte of 63-bit keys).
package psort

import (
	"runtime"
	"sync"
)

// KV is a sort item: an SFC key and the index of the particle that owns it.
type KV struct {
	Key uint64
	Idx int32
}

const radixBits = 8
const radix = 1 << radixBits

// Sort sorts kv in place by Key (ascending, stable) using up to workers
// goroutines. workers <= 0 selects GOMAXPROCS.
func Sort(kv []KV, workers int) {
	var s Sorter
	s.Sort(kv, workers)
}

// Sorter owns every piece of sort scratch — the ping-pong buffer, the
// per-chunk digit histograms and offsets, and the chunk bounds — so a caller
// sorting every step allocates nothing in steady state. The zero value is
// ready to use; buffers grow on first use and are retained across calls.
type Sorter struct {
	buf    []KV
	hist   [][radix]int
	off    [][radix]int
	bounds []int
}

// Sort sorts kv in place by Key (ascending, stable) using up to workers
// goroutines; workers <= 0 selects GOMAXPROCS. The single-chunk case runs
// entirely inline (no goroutines), so a workers=1 steady-state sort performs
// zero allocations once the Sorter's buffers have grown to the input size.
func (s *Sorter) Sort(kv []KV, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(kv)
	if n < 2 {
		return
	}
	if cap(s.buf) < n {
		s.buf = make([]KV, n)
	}
	buf := s.buf[:n]
	if n < 4096 {
		mergeSort(kv, buf)
		return
	}

	// Determine which byte positions actually vary.
	var orAll, andAll uint64 = 0, ^uint64(0)
	for _, e := range kv {
		orAll |= e.Key
		andAll &= e.Key
	}
	varying := orAll ^ andAll
	passes := 0
	for pass := 0; pass < 8; pass++ {
		if (varying>>(uint(pass)*radixBits))&0xff != 0 {
			passes++
		}
	}
	if passes == 0 {
		return
	}

	// Choose the starting buffer so the last scatter lands in kv: an even
	// pass count starts from kv, an odd one from buf. For the odd case the
	// corrective copy into buf is fused into the first pass's histogram
	// scan — one extra write on a pass that reads every element anyway —
	// which deletes the final copy-back pass entirely.
	src, dst := kv, buf
	fuseCopy := passes%2 == 1
	if fuseCopy {
		src, dst = buf, kv
	}

	chunks := workers
	if cap(s.hist) < chunks {
		s.hist = make([][radix]int, chunks)
		s.off = make([][radix]int, chunks)
	}
	hist, off := s.hist[:chunks], s.off[:chunks]
	bounds := s.chunkBounds(n, chunks)

	for pass := 0; pass < 8; pass++ {
		shift := uint(pass * radixBits)
		if (varying>>shift)&0xff == 0 {
			continue // this byte is constant; pass is a no-op
		}
		// Per-chunk histograms. Each chunk clears exactly the counters it is
		// about to fill, inside its own goroutine on the parallel path.
		if chunks == 1 {
			hist[0] = [radix]int{}
			h := &hist[0]
			if fuseCopy {
				for i, e := range kv {
					buf[i] = e
					h[(e.Key>>shift)&0xff]++
				}
			} else {
				for _, e := range src {
					h[(e.Key>>shift)&0xff]++
				}
			}
		} else {
			// src/dst are passed as arguments, not captured: the swap at the
			// end of each pass would otherwise force them to be heap-boxed at
			// function entry, costing the single-chunk path two allocations.
			var wg sync.WaitGroup
			for c := 0; c < chunks; c++ {
				wg.Add(1)
				go func(c int, src []KV, fuse bool) {
					defer wg.Done()
					hist[c] = [radix]int{}
					h := &hist[c]
					if fuse {
						for i := bounds[c]; i < bounds[c+1]; i++ {
							e := kv[i]
							buf[i] = e
							h[(e.Key>>shift)&0xff]++
						}
					} else {
						for _, e := range src[bounds[c]:bounds[c+1]] {
							h[(e.Key>>shift)&0xff]++
						}
					}
				}(c, src, fuseCopy)
			}
			wg.Wait()
		}
		fuseCopy = false

		// Exclusive prefix sums: offset for (digit d, chunk c).
		total := 0
		for d := 0; d < radix; d++ {
			for c := 0; c < chunks; c++ {
				off[c][d] = total
				total += hist[c][d]
			}
		}

		// Scatter.
		if chunks == 1 {
			o := &off[0]
			for _, e := range src {
				d := (e.Key >> shift) & 0xff
				dst[o[d]] = e
				o[d]++
			}
		} else {
			var wg sync.WaitGroup
			for c := 0; c < chunks; c++ {
				wg.Add(1)
				go func(c int, src, dst []KV) {
					defer wg.Done()
					o := &off[c]
					for _, e := range src[bounds[c]:bounds[c+1]] {
						d := (e.Key >> shift) & 0xff
						dst[o[d]] = e
						o[d]++
					}
				}(c, src, dst)
			}
			wg.Wait()
		}
		src, dst = dst, src
	}
}

// mergeSort is the small-input fallback below the parallel radix threshold:
// a stable merge sort (preserving the stability contract) over a caller
// -provided temporary of the same length.
func mergeSort(a, tmp []KV) {
	n := len(a)
	if n < 16 {
		// insertion sort (stable)
		for i := 1; i < n; i++ {
			e := a[i]
			j := i - 1
			for j >= 0 && a[j].Key > e.Key {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = e
		}
		return
	}
	m := n / 2
	mergeSort(a[:m], tmp[:m])
	mergeSort(a[m:], tmp[m:])
	copy(tmp, a)
	i, j, k := 0, m, 0
	for i < m && j < n {
		if tmp[j].Key < tmp[i].Key {
			a[k] = tmp[j]
			j++
		} else {
			a[k] = tmp[i]
			i++
		}
		k++
	}
	for i < m {
		a[k] = tmp[i]
		i++
		k++
	}
	for j < n {
		a[k] = tmp[j]
		j++
		k++
	}
}

func (s *Sorter) chunkBounds(n, chunks int) []int {
	if cap(s.bounds) < chunks+1 {
		s.bounds = make([]int, chunks+1)
	}
	b := s.bounds[:chunks+1]
	for c := 0; c <= chunks; c++ {
		b[c] = c * n / chunks
	}
	return b
}

// Permute applies the permutation encoded in sorted (Key, Idx) pairs to a set
// of particle attribute arrays: out[i] = in[kv[i].Idx]. It is the "reorder
// particles into SFC order" step that follows the key sort.
func Permute[T any](kv []KV, in, out []T) {
	for i, e := range kv {
		out[i] = in[e.Idx]
	}
}
