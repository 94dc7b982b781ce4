// Package par provides the tiny fork-join primitives the per-rank tree
// pipeline is parallelized with. Every stage of the paper's pipeline — SFC
// keys, sort, tree construction, tree properties, tree walk — runs on the
// device; here the "device" is the rank's worker pool, and these helpers are
// the common fan-out shapes:
//
//   - For: a static contiguous split of an index range, one chunk per
//     worker. Right for uniform-cost loops (key computation, SoA fills,
//     group bounding boxes) where chunking keeps per-index overhead at zero.
//   - Dyn: dynamic claiming of items off a shared atomic counter. Right for
//     item lists with very uneven costs (subtree spans of the multipole
//     sweep), where a static split would leave workers idle.
//
// Both run inline — no goroutines, no allocation — when workers <= 1 or the
// input is a single chunk, so serial configurations pay nothing and the
// output of any loop body that writes disjoint indices is bitwise
// independent of the worker count.
package par

import (
	"sync"
	"sync/atomic"
)

// For splits [0, n) into one contiguous chunk per worker and runs fn(lo, hi)
// on each chunk concurrently. fn must only write state owned by its index
// range. workers <= 1 (or n smaller than 2 chunks) runs fn(0, n) inline.
func For(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Dyn runs fn(i) for every i in [0, n), with workers claiming indices from a
// shared atomic counter: whichever worker finishes early steals the tail, so
// wildly uneven per-item costs still balance. workers <= 1 runs inline in
// index order.
func Dyn(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
