package octree

import (
	"sync"
	"sync/atomic"

	"bonsai/internal/keys"
	"bonsai/internal/par"
	"bonsai/internal/vec"
)

// The parallel tree constructor follows the construction strategy of the
// Bonsai method paper (Bédorf, Gaburov & Portegies Zwart 2012): over
// SFC-sorted particles every subtree covers a contiguous key range, so the
// build decomposes perfectly — expand the top of the tree serially (each
// split is eight binary searches) until enough independent subtree roots
// exist to feed the worker pool, build each subtree concurrently, and stitch
// the pieces back together. The stitch replays the serial depth-first order
// and fixes up child indices by each subtree's placement offset, so the
// final Cells slice is *bitwise identical* to the serial build's — walks,
// LET construction, and the determinism tests see no difference.

// parallelBuildMin is the particle count below which the parallel
// constructor falls back to the serial build: fan-out overhead dominates
// under ~16k particles.
const parallelBuildMin = 1 << 14

// subtreeFanout scales how many independent subtree roots the serial top
// expansion aims for per worker; 4× gives the dynamic scheduler enough
// pieces to balance uneven subtree sizes.
const subtreeFanout = 4

// cellSpan is a contiguous range of the final Cells slice holding one
// concurrently built subtree.
type cellSpan struct{ base, n int32 }

// skelCell is one serially built top cell awaiting placement. Child slots
// hold either a skeleton index (>= 0), NilCell, or an encoded frontier-task
// reference (<= -2).
type skelCell struct {
	cell     Cell
	children [8]int32
}

func frontierRef(task int) int32 { return -2 - int32(task) }
func frontierTask(ref int32) int { return int(-2 - ref) }

// subtreeTask is one delegated subtree: its particle range, the worker
// arena it was built into, and its placement in the final layout. The fused
// sort+build path additionally records the key-buffer parity of the range
// (inBuf) so the finishing sort knows where the partition left its data.
type subtreeTask struct {
	level    int32
	start, n int32
	arena    int32 // worker index
	off      int32 // offset of the subtree root within the arena
	len      int32 // cells in the subtree
	base     int32 // final index of the subtree root after placement
	inBuf    bool  // fused path: range currently lives in the sorter's buffer
}

// BuildScratch owns every buffer of the tree pipeline — the final cell
// slice, the skeleton and task lists, and the per-worker cell arenas — so a
// rank rebuilding its tree every step performs zero steady-state
// allocations. The zero value is ready to use; buffers grow on first use
// and survive across builds. A BuildScratch must not be shared by
// concurrent builds (each rank owns one).
type BuildScratch struct {
	tree   Tree
	cells  []Cell
	skel   []skelCell
	tasks  []subtreeTask
	arenas [][]Cell
	top    []int32
	subs   []cellSpan

	// Fused sort+build state (SortBuildScratch): per-expansion-depth MSD
	// bucket bounds, and the sorter/key view the recursive partition reads.
	msdBounds [][]int
	fz        fusedState
}

// BuildStructureScratch is BuildStructure with worker parallelism and
// scratch reuse: the returned *Tree (owned by sc, valid until the next
// build) has exactly the serial depth-first cell layout, bitwise identical
// to BuildStructure's, for any worker count. workers <= 1 — or inputs too
// small to be worth fanning out — runs the serial builder into the reused
// buffer.
func BuildStructureScratch(sc *BuildScratch, ks []keys.Key, pos []vec.V3, mass []float64,
	grid keys.Grid, nleaf, workers int) *Tree {

	if nleaf <= 0 {
		nleaf = DefaultNLeaf
	}
	t := sc.resetTree(ks, pos, mass, grid, nleaf)
	if len(pos) == 0 {
		return t
	}
	if workers <= 1 || len(pos) < parallelBuildMin {
		if sc.cells == nil {
			sc.cells = make([]Cell, 0, 2*len(pos)/nleaf+8)
		}
		t.Cells = sc.cells[:0]
		t.build(0, 0, int32(len(pos)))
		sc.cells = t.Cells // keep the grown buffer
		return t
	}
	buildParallel(t, sc, workers)
	return t
}

// resetTree points the scratch-owned tree at new particle arrays, keeping
// only the walk view's storage from the previous build.
func (sc *BuildScratch) resetTree(ks []keys.Key, pos []vec.V3, mass []float64, grid keys.Grid, nleaf int) *Tree {
	t := &sc.tree
	*t = Tree{Keys: ks, Pos: pos, Mass: mass, Grid: grid, NLeaf: nleaf,
		view: View{cells: t.view.cells[:0]}}
	return t
}

// buildParallel is the three-stage concurrent constructor: serial skeleton
// expansion to ~subtreeFanout×workers frontier tasks, concurrent subtree
// builds into per-worker arenas, and the placement/stitch pass that
// reproduces the serial depth-first layout.
func buildParallel(t *Tree, sc *BuildScratch, workers int) {
	n := int32(len(t.Pos))
	cutoff := n / int32(subtreeFanout*workers)
	if cutoff < int32(t.NLeaf) {
		cutoff = int32(t.NLeaf)
	}

	// --- Stage 1: serial skeleton. Cells with more than cutoff particles
	// are expanded on the calling goroutine (eight binary searches each);
	// smaller octants become frontier tasks.
	sc.skel = sc.skel[:0]
	sc.tasks = sc.tasks[:0]
	sc.buildSkeleton(t, 0, 0, n, cutoff)

	// --- Stage 2: build every frontier subtree concurrently. Workers claim
	// tasks off a shared counter and append into their own arena with
	// arena-relative child indices; task order inside an arena is whatever
	// the claiming produced, which the placement stage makes irrelevant.
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
				tk.arena = int32(w)
				tk.off = int32(len(arena))
				t.buildInto(&arena, tk.level, tk.start, tk.start+tk.n)
				tk.len = int32(len(arena)) - tk.off
			}
			arenas[w] = arena
		}(w)
	}
	wg.Wait()

	placeAndStitch(t, sc, workers)
}

// placeAndStitch is the shared final stage of both parallel constructors
// (binary-search skeleton and fused MSD partition): replay the serial
// depth-first order over the skeleton to assign every top cell its final
// index and every subtree its contiguous span, then copy the arena-built
// subtrees into place.
func placeAndStitch(t *Tree, sc *BuildScratch, workers int) {
	// --- Placement. This serial pass only touches the (few) top cells.
	total := len(sc.skel)
	for i := range sc.tasks {
		total += int(sc.tasks[i].len)
	}
	sc.cells = resizeCells(sc.cells, total)
	sc.top = sc.top[:0]
	sc.subs = sc.subs[:0]
	sc.place(0, 0)

	// --- Stitch. Copy every arena-built subtree into its final span,
	// shifting child indices by (final base − arena offset). Subtrees are
	// disjoint spans, so the copies run concurrently. The closure literal
	// stays inside the workers > 1 branch to keep the serial path
	// allocation free.
	if workers > 1 {
		par.Dyn(len(sc.tasks), workers, func(k int) { stitchTask(sc, k) })
	} else {
		for k := range sc.tasks {
			stitchTask(sc, k)
		}
	}

	t.Cells = sc.cells
	t.topCells = sc.top
	t.subSpans = sc.subs
}

// place copies skeleton cell si to the final index `cursor` and returns the
// cursor advanced past the whole subtree rooted there. A method (not a
// closure) so the serial fused path stays allocation free.
func (sc *BuildScratch) place(si, cursor int32) int32 {
	final := cursor
	cursor++
	sc.cells[final] = sc.skel[si].cell
	sc.top = append(sc.top, final)
	for oct, ref := range sc.skel[si].children {
		switch {
		case ref == NilCell:
			// already NilCell in the copied cell
		case ref >= 0:
			sc.cells[final].Children[oct] = cursor
			cursor = sc.place(ref, cursor)
		default:
			tk := &sc.tasks[frontierTask(ref)]
			tk.base = cursor
			cursor += tk.len
			sc.cells[final].Children[oct] = tk.base
			sc.subs = append(sc.subs, cellSpan{tk.base, tk.len})
		}
	}
	return cursor
}

// stitchTask copies one subtree from its worker arena into its final span.
func stitchTask(sc *BuildScratch, k int) {
	tk := &sc.tasks[k]
	src := sc.arenas[tk.arena][tk.off : tk.off+tk.len]
	dst := sc.cells[tk.base : tk.base+tk.len]
	shift := tk.base - tk.off
	for i := range src {
		c := src[i]
		for o := 0; o < 8; o++ {
			if c.Children[o] != NilCell {
				c.Children[o] += shift
			}
		}
		dst[i] = c
	}
}

// buildSkeleton expands the cell covering [start, end) serially, delegating
// octants at or below the cutoff as frontier tasks, and returns its skeleton
// index. The octant partition is the same binary search the serial build
// performs, so the topology (and every cell payload) matches exactly.
func (sc *BuildScratch) buildSkeleton(t *Tree, level, start, end, cutoff int32) int32 {
	idx := int32(len(sc.skel))
	cell := Cell{
		Level:    level,
		Start:    start,
		N:        end - start,
		Children: [8]int32{NilCell, NilCell, NilCell, NilCell, NilCell, NilCell, NilCell, NilCell},
	}
	t.cellGeometry(&cell)
	sc.skel = append(sc.skel, skelCell{
		cell:     cell,
		children: [8]int32{NilCell, NilCell, NilCell, NilCell, NilCell, NilCell, NilCell, NilCell},
	})

	if end-start <= int32(t.NLeaf) || level >= keys.Bits {
		sc.skel[idx].cell.Leaf = true
		return idx
	}

	var bounds [9]int32
	bounds[0] = start
	for oct := 0; oct < 8; oct++ {
		bounds[oct+1] = t.upperBound(bounds[oct], end, level, oct)
	}
	for oct := 0; oct < 8; oct++ {
		lo, hi := bounds[oct], bounds[oct+1]
		if lo == hi {
			continue
		}
		if hi-lo <= cutoff {
			sc.tasks = append(sc.tasks, subtreeTask{level: level + 1, start: lo, n: hi - lo})
			sc.skel[idx].children[oct] = frontierRef(len(sc.tasks) - 1)
		} else {
			sc.skel[idx].children[oct] = sc.buildSkeleton(t, level+1, lo, hi, cutoff)
		}
	}
	return idx
}

// ComputePropertiesParallel is ComputeProperties with worker parallelism:
// the reverse sweep runs per concurrently built subtree (children of any
// cell in a span live inside that span), and the shared top cells finish
// serially in reverse placement order — each of their children is either a
// later-placed top cell or the root of an already-finished subtree. Trees
// without partition info (serial builds), or workers <= 1, take the serial
// sweep. Moments are bitwise identical either way: momentsAt is the shared
// unit of work and no evaluation order crosses a cell boundary.
func (t *Tree) ComputePropertiesParallel(workers int) {
	if workers <= 1 || len(t.subSpans) == 0 {
		t.ComputeProperties()
		return
	}
	t.view.invalidate()
	subs := t.subSpans
	par.Dyn(len(subs), workers, func(k int) {
		s := subs[k]
		for i := s.base + s.n - 1; i >= s.base; i-- {
			t.momentsAt(i)
		}
	})
	top := t.topCells
	for k := len(top) - 1; k >= 0; k-- {
		t.momentsAt(top[k])
	}
}

// minGroupOccupancy is the mean N/ngroup the tree cut fills its groups to on
// clustered particle sets; TestGroupOccupancy holds the cut to it (0.62
// measured on the 16k Milky Way model) and MakeGroupsScratch sizes its
// result from it.
const minGroupOccupancy = 0.5

// MakeGroupsScratch is MakeGroups with worker parallelism and result-slice
// reuse: the tree cut (a cheap serial DFS over ~N/ngroup cells) enumerates
// the group ranges in depth-first order, then the per-group bounding boxes
// — the O(N) part — are computed concurrently. dst is reused when its
// capacity suffices; the result is preallocated from the expected group
// count otherwise. Output is identical to MakeGroups for any worker count.
func (t *Tree) MakeGroupsScratch(ngroup, workers int, dst []Group) []Group {
	if ngroup <= 0 {
		ngroup = DefaultNGroup
	}
	groups := dst[:0]
	if len(t.Cells) == 0 {
		return groups
	}
	// Groups are at least minGroupOccupancy full on average, and never
	// outnumber the particles.
	hint := min(int(float64(len(t.Pos))/(minGroupOccupancy*float64(ngroup)))+8, len(t.Pos))
	if cap(groups) < hint {
		groups = make([]Group, 0, hint)
	}
	groups = t.groupCuts(0, ngroup, groups)
	// The closure literal stays inside the workers > 1 branch: it escapes
	// through par.For's goroutines, so hoisting it would cost the serial path
	// one heap allocation per call.
	if workers > 1 {
		par.For(len(groups), workers, func(lo, hi int) {
			for g := lo; g < hi; g++ {
				groups[g].Box = boundsOf(t.Pos[groups[g].Start : groups[g].Start+groups[g].N])
			}
		})
	} else {
		for g := range groups {
			groups[g].Box = boundsOf(t.Pos[groups[g].Start : groups[g].Start+groups[g].N])
		}
	}
	return groups
}

// groupCuts appends, in depth-first order, the (Start, N) of the groups under
// cell idx (see MakeGroups): the cell itself when it is a leaf or holds at
// most ngroup particles, otherwise its child slots packed into the largest
// aligned spans that do. Aligned, because every aligned span of the Morton
// digit is one box (a half-, quarter- or eighth-cell), which a run of
// consecutive slots is not: slots 1-2, 3-4 and 5-6 are diagonal neighbours,
// and the loose bounding box of such a run costs p-p work (10% more at
// ngroup 64, 60% at 256, on the Milky Way model) for 8% fewer groups.
// Children are contiguous in particle order, so a span is one
// [Start, Start+N) range.
func (t *Tree) groupCuts(idx int32, ngroup int, groups []Group) []Group {
	c := &t.Cells[idx]
	if c.Leaf || int(c.N) <= ngroup {
		return append(groups, Group{Start: c.Start, N: c.N})
	}
	var end [9]int32 // end[o]: first particle index past child slots [0, o)
	end[0] = c.Start
	for o, ch := range c.Children {
		end[o+1] = end[o]
		if ch != NilCell {
			end[o+1] += t.Cells[ch].N
		}
	}
	for lo, w := 0, 0; lo < 8; lo += w {
		for w = 1; w < 4 && lo%(2*w) == 0 && int(end[lo+2*w]-end[lo]) <= ngroup; w *= 2 {
		}
		switch n := end[lo+w] - end[lo]; {
		case n == 0:
		case int(n) > ngroup: // w == 1: one child, cut in turn
			groups = t.groupCuts(c.Children[lo], ngroup, groups)
		default:
			groups = append(groups, Group{Start: end[lo], N: n})
		}
	}
	return groups
}

// GroupsOfScratch is GroupsOf with worker parallelism and result-slice
// reuse: the fixed-size runs are laid out exactly (count is known up
// front), then bounding boxes fill in concurrently.
func GroupsOfScratch(pos []vec.V3, ngroup, workers int, dst []Group) []Group {
	if ngroup <= 0 {
		ngroup = DefaultNGroup
	}
	count := (len(pos) + ngroup - 1) / ngroup
	groups := dst[:0]
	if cap(groups) < count {
		groups = make([]Group, 0, count)
	}
	for start := 0; start < len(pos); start += ngroup {
		n := ngroup
		if start+n > len(pos) {
			n = len(pos) - start
		}
		groups = append(groups, Group{Start: int32(start), N: int32(n)})
	}
	if workers > 1 {
		par.For(len(groups), workers, func(lo, hi int) {
			for g := lo; g < hi; g++ {
				groups[g].Box = boundsOf(pos[groups[g].Start : groups[g].Start+groups[g].N])
			}
		})
	} else {
		for g := range groups {
			groups[g].Box = boundsOf(pos[groups[g].Start : groups[g].Start+groups[g].N])
		}
	}
	return groups
}

func resizeCells(s []Cell, n int) []Cell {
	if cap(s) < n {
		return make([]Cell, n)
	}
	return s[:n]
}
