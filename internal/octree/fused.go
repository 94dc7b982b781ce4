package octree

import (
	"sync"
	"sync/atomic"

	"bonsai/internal/keys"
	"bonsai/internal/psort"
	"bonsai/internal/vec"
)

// The fused constructor merges the Morton-key sort and the tree-top build
// into one pass, the histogram formulation of Cornerstone (Keller et al.
// 2023): an MSD counting sort on 3-bit octant digits partitions particles
// level by level, and the per-octant counts of each partition *are* the
// child populations of the corresponding tree cell — so the skeleton falls
// out of the sort for free, replacing both the high-byte LSD passes and the
// separate binary-search expansion. Frontier ranges at the usual
// ~subtreeFanout×workers granularity are then finished concurrently: each
// worker completes the sort of its range (LSD on the remaining low key
// bits, in cache), permutes the particle payload, and builds the subtree
// into its arena. Placement and stitching are shared with buildParallel, so
// the final Cells layout is bitwise identical to the serial build's for any
// worker count.

// fusedBuildMin is the particle count below which the fused constructor
// falls back to plain sort + serial build: partition bookkeeping dominates
// on tiny inputs.
const fusedBuildMin = 4096

// fusedSerialMin is the higher fallback bound for workers == 1. The MSD
// partition strips 3-bit digits that do not align with the byte-wise LSD
// tails, so a small serial input pays roughly one extra pass with no
// parallel finishing or locality win to amortize it — measured slower than
// the separate path below a few tens of thousands of bodies
// (BenchmarkSortBuildFused). Parallel builds keep the lower bound: the
// concurrent range finishing pays off much earlier.
const fusedSerialMin = 1 << 15

// fusedMaxSubtree caps the frontier range size so per-range finishing sorts
// stay cache resident even at low worker counts.
const fusedMaxSubtree = 1 << 16

// fusedState is the recursion context of the MSD expansion, stored on the
// scratch so the expansion can run as methods (closure-free).
type fusedState struct {
	srt     *psort.Sorter
	kv      []psort.KV
	cutoff  int
	workers int
}

var nilChildren = [8]int32{NilCell, NilCell, NilCell, NilCell, NilCell, NilCell, NilCell, NilCell}

// SortBuildScratch sorts kv by Morton key and builds the tree structure in
// one fused pass. kv holds the (unsorted) keys with original particle
// indices; fill(lo, hi) is called exactly once per finished range, after
// kv[lo:hi] holds its final sorted order, and must populate ks, pos and
// mass (and any caller payload) for that range from kv's Idx permutation —
// ranges are disjoint and fill may be called from concurrent workers. The
// returned tree (owned by sc, valid until the next build) has exactly the
// serial depth-first cell layout: bitwise identical Cells, for any worker
// count, to psort.Sort + BuildStructureScratch over the same input.
func SortBuildScratch(sc *BuildScratch, srt *psort.Sorter, kv []psort.KV,
	ks []keys.Key, pos []vec.V3, mass []float64, grid keys.Grid,
	nleaf, workers int, fill func(lo, hi int)) *Tree {

	if nleaf <= 0 {
		nleaf = DefaultNLeaf
	}
	if workers < 1 {
		workers = 1
	}
	t := sc.resetTree(ks, pos, mass, grid, nleaf)
	n := len(kv)
	if n == 0 {
		return t
	}

	cutoff := n / (subtreeFanout * workers)
	if cutoff > fusedMaxSubtree {
		cutoff = fusedMaxSubtree
	}
	if cutoff < nleaf {
		cutoff = nleaf
	}

	if n < fusedBuildMin || n <= cutoff || (workers == 1 && n < fusedSerialMin) {
		srt.Sort(kv, workers)
		fill(0, n)
		if sc.cells == nil {
			sc.cells = make([]Cell, 0, 2*n/nleaf+8)
		}
		t.Cells = sc.cells[:0]
		t.build(0, 0, int32(n))
		sc.cells = t.Cells
		return t
	}

	// --- Stage 1: MSD partition + skeleton. Serial over the top of the key
	// space (each partition pass may itself be chunked across workers);
	// emits the skeleton cells and the frontier tasks. Cell geometry is
	// deferred: particle positions only exist once ranges are finished.
	sc.skel = sc.skel[:0]
	sc.tasks = sc.tasks[:0]
	sc.fz = fusedState{srt: srt, kv: kv, cutoff: cutoff, workers: workers}
	sc.fusedExpand(0, 0, n, false, 0)
	sc.fz = fusedState{}

	if workers == 1 {
		// --- Serial stages 2+3, fused: replay the placement DFS once,
		// finishing each frontier range (sort tail + payload fill) right
		// before its subtree is built — while the range is cache hot —
		// directly into the final cells slice. No arenas, no stitch copy.
		if sc.cells == nil {
			sc.cells = make([]Cell, 0, 2*n/nleaf+8)
		}
		sc.cells = sc.cells[:0]
		sc.top = sc.top[:0]
		sc.subs = sc.subs[:0]
		sc.placeBuildSerial(t, srt, kv, fill, 0)
		// Skeleton-cell geometry is deferred to the end of the DFS: a top
		// cell is appended before the particles below it are finished, so
		// Pos[Start] only becomes valid once the whole subtree is filled.
		for _, idx := range sc.top {
			t.cellGeometry(&sc.cells[idx])
		}
		t.Cells = sc.cells
		t.topCells = sc.top
		t.subSpans = sc.subs
		return t
	}

	// --- Stage 2: finish every frontier range concurrently. Workers claim
	// tasks off a shared counter, complete the sort of the range (LSD on
	// the low key bits, stack scratch, disjoint ranges), fill the particle
	// payload, and build the subtree into their own arena.
	if cap(sc.arenas) < workers {
		arenas := make([][]Cell, workers)
		copy(arenas, sc.arenas)
		sc.arenas = arenas
	}
	arenas := sc.arenas[:workers]
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			arena := arenas[w][:0]
			for {
				k := int(next.Add(1)) - 1
				if k >= len(sc.tasks) {
					break
				}
				tk := &sc.tasks[k]
				srt.FinishRange(kv, int(tk.start), int(tk.start+tk.n), tk.inBuf)
				fill(int(tk.start), int(tk.start+tk.n))
				tk.arena = int32(w)
				tk.off = int32(len(arena))
				t.buildInto(&arena, tk.level, tk.start, tk.start+tk.n)
				tk.len = int32(len(arena)) - tk.off
			}
			arenas[w] = arena
		}(w)
	}
	wg.Wait()

	// Deferred skeleton geometry: every range is filled now, so Pos[Start]
	// is valid for every skeleton cell.
	for i := range sc.skel {
		t.cellGeometry(&sc.skel[i].cell)
	}

	placeAndStitch(t, sc, workers)
	return t
}

// placeBuildSerial is the workers=1 finish: walk the skeleton in placement
// (serial depth-first) order, appending top cells and building every
// frontier subtree in place. Identical layout to placeAndStitch by
// construction — both replay the same DFS and buildInto appends the same
// cells at the same cursor positions.
func (sc *BuildScratch) placeBuildSerial(t *Tree, srt *psort.Sorter, kv []psort.KV,
	fill func(lo, hi int), si int32) {

	final := int32(len(sc.cells))
	sc.cells = append(sc.cells, sc.skel[si].cell)
	sc.top = append(sc.top, final)
	for oct, ref := range sc.skel[si].children {
		switch {
		case ref == NilCell:
			// already NilCell in the copied cell
		case ref >= 0:
			sc.cells[final].Children[oct] = int32(len(sc.cells))
			sc.placeBuildSerial(t, srt, kv, fill, ref)
		default:
			tk := &sc.tasks[frontierTask(ref)]
			srt.FinishRange(kv, int(tk.start), int(tk.start+tk.n), tk.inBuf)
			fill(int(tk.start), int(tk.start+tk.n))
			tk.base = int32(len(sc.cells))
			t.buildInto(&sc.cells, tk.level, tk.start, tk.start+tk.n)
			tk.len = int32(len(sc.cells)) - tk.base
			sc.cells[final].Children[oct] = tk.base
			sc.subs = append(sc.subs, cellSpan{tk.base, tk.len})
		}
	}
}

// fusedExpand partitions [lo, hi) — a range sharing all key digits above
// `level`, currently in kv (inBuf false) or the sorter's buffer (inBuf
// true) — by its next octant digit(s) and emits the corresponding skeleton
// cell. Large ranges take a 6-bit (two-level) pass so half as many passes
// touch the data; the intermediate level's cells are recovered from the
// same bounds array. Returns the skeleton index.
func (sc *BuildScratch) fusedExpand(level int32, lo, hi int, inBuf bool, depth int) int32 {
	idx := int32(len(sc.skel))
	sc.skel = append(sc.skel, skelCell{
		cell: Cell{
			Level:    level,
			Start:    int32(lo),
			N:        int32(hi - lo),
			Children: nilChildren,
		},
		children: nilChildren,
	})
	span := 1
	if level+1 < keys.Bits && (hi-lo)>>3 > sc.fz.cutoff {
		span = 2
	}
	bits := 3 * span
	shift := uint(3 * (keys.Bits - int(level) - span))
	bounds := sc.fusedBoundsAt(depth)
	sc.fz.srt.PartitionDigits(sc.fz.kv, lo, hi, inBuf, shift, bits, bounds[:(1<<bits)+1], sc.fz.workers)

	// Collect children into a local array: sc.skel may reallocate during
	// the recursion, invalidating any held pointer into it.
	var kids [8]int32
	for oct := 0; oct < 8; oct++ {
		kids[oct] = sc.fusedEmit(level+1, oct, 1, span, bounds, !inBuf, depth)
	}
	sc.skel[idx].children = kids
	return idx
}

// fusedEmit materialises the child covering digit prefix p (k of span
// digits consumed) from the bounds of a partition pass: an empty range is
// NilCell, a range at or below the cutoff becomes a frontier task, a
// full-prefix range recurses into a fresh expansion, and a partial prefix
// (the intermediate level of a 6-bit pass) becomes a skeleton cell whose
// children come from the same bounds.
func (sc *BuildScratch) fusedEmit(level int32, p, k, span int, bounds []int, inBuf bool, depth int) int32 {
	lo := bounds[p<<uint(3*(span-k))]
	hi := bounds[(p+1)<<uint(3*(span-k))]
	if lo == hi {
		return NilCell
	}
	// A range at the depth limit needs no further partitioning (all key
	// digits are fixed); buildInto emits exactly its one leaf cell, so it
	// is an ordinary frontier task whatever its size.
	if hi-lo <= sc.fz.cutoff || level >= keys.Bits {
		sc.tasks = append(sc.tasks, subtreeTask{
			level: level, start: int32(lo), n: int32(hi - lo), inBuf: inBuf,
		})
		return frontierRef(len(sc.tasks) - 1)
	}
	if k == span {
		return sc.fusedExpand(level, lo, hi, inBuf, depth+1)
	}
	// Intermediate-level cell: above the cutoff and (since span was 2)
	// above the leaf bound, so it is an inner cell whose octant partition
	// is already present in bounds — no extra pass over the data.
	idx := int32(len(sc.skel))
	sc.skel = append(sc.skel, skelCell{
		cell: Cell{
			Level:    level,
			Start:    int32(lo),
			N:        int32(hi - lo),
			Children: nilChildren,
		},
		children: nilChildren,
	})
	var kids [8]int32
	for oct := 0; oct < 8; oct++ {
		kids[oct] = sc.fusedEmit(level+1, p<<3|oct, k+1, span, bounds, inBuf, depth)
	}
	sc.skel[idx].children = kids
	return idx
}

// fusedBoundsAt returns the bounds scratch for one expansion depth; each
// depth needs its own array because parent partitions are still being
// consumed while children partition. Grown lazily, reused across builds.
func (sc *BuildScratch) fusedBoundsAt(depth int) []int {
	for len(sc.msdBounds) <= depth {
		sc.msdBounds = append(sc.msdBounds, make([]int, 65))
	}
	return sc.msdBounds[depth]
}
