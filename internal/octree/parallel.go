package octree

import (
	"bonsai/internal/keys"
	"bonsai/internal/par"
	"bonsai/internal/vec"
)

// The tree is built serially: over SFC-sorted particles the depth-first
// build is eight binary searches per cell and a few percent of a step, and
// every parallel constructor tried here lost to it (EXPERIMENTS.md, "Verdict:
// fused sort+build and arena/stitch builder deleted"). What does scale with
// workers is the O(N) work over the finished tree — multipole moments and
// group bounding boxes — and the moments sweep needs the cells partitioned
// into independent subtrees. Because the build lays cells out in depth-first
// preorder, a subtree is the contiguous index range [i, Skip), so that
// partition is read off the finished tree.

// parallelBuildMin is the particle count below which no partition is
// derived and the properties sweep stays serial: fan-out overhead dominates
// under ~16k particles.
const parallelBuildMin = 1 << 14

// subtreeFanout scales how many independent subtrees the partition aims for
// per worker; 4× gives the dynamic scheduler enough pieces to balance uneven
// subtree sizes.
const subtreeFanout = 4

// cellSpan is a contiguous range of Cells holding one whole subtree.
type cellSpan struct{ base, n int32 }

// BuildScratch owns the buffers of the tree build — the tree header, the cell
// slice and the properties partition — so a rank rebuilding its tree every
// step performs zero steady-state allocations. The zero value is ready to
// use; buffers grow on first use and survive across builds. A BuildScratch
// must not be shared by concurrent builds (each rank owns one).
type BuildScratch struct {
	tree  Tree
	cells []Cell
	top   []int32
	subs  []cellSpan
}

// BuildStructureScratch is BuildStructure into reused buffers: the returned
// *Tree is owned by sc and valid until the next build. With workers > 1 and
// at least parallelBuildMin particles it also records the partition
// ComputePropertiesParallel sweeps concurrently; the cells are the same for
// any worker count.
func BuildStructureScratch(sc *BuildScratch, ks []keys.Key, pos []vec.V3, mass []float64,
	grid keys.Grid, nleaf, workers int) *Tree {

	if nleaf <= 0 {
		nleaf = DefaultNLeaf
	}
	t := &sc.tree
	*t = Tree{Keys: ks, Pos: pos, Mass: mass, Grid: grid, NLeaf: nleaf,
		view: View{cells: t.view.cells[:0]}} // keep only the walk view's storage
	n := int32(len(pos))
	if n == 0 {
		return t
	}
	if sc.cells == nil {
		sc.cells = make([]Cell, 0, 2*len(pos)/nleaf+8)
	}
	t.Cells = sc.cells[:0]
	t.build(0, 0, n)
	sc.cells = t.Cells // keep the grown buffer

	if workers > 1 && n >= parallelBuildMin {
		cutoff := max(n/int32(subtreeFanout*workers), int32(nleaf))
		sc.top, sc.subs = sc.top[:0], sc.subs[:0]
		sc.cut(t, 0, cutoff)
		t.topCells, t.subSpans = sc.top, sc.subs
	}
	return t
}

// cut partitions the subtree of cell i, which holds more than cutoff
// particles: i becomes a top cell; each child subtree becomes one span if it
// holds at most cutoff particles and is cut in turn otherwise.
func (sc *BuildScratch) cut(t *Tree, i, cutoff int32) {
	sc.top = append(sc.top, i)
	for ch := i + 1; ch < t.Cells[i].Skip; ch = t.Cells[ch].Skip {
		if t.Cells[ch].N <= cutoff {
			sc.subs = append(sc.subs, cellSpan{ch, t.Cells[ch].Skip - ch})
		} else {
			sc.cut(t, ch, cutoff)
		}
	}
}

// ComputePropertiesParallel is ComputeProperties with worker parallelism:
// the reverse sweep runs concurrently per span of the partition
// BuildStructureScratch recorded (children of any cell in a span live inside
// that span), and the top cells finish serially in reverse order — each of
// their children is either a later top cell or the root of an
// already-finished span. Trees without a partition, or workers <= 1, take the
// serial sweep. Moments are bitwise identical either way: momentsAt is the
// shared unit of work and no evaluation order crosses a cell boundary.
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
// clustered particle sets; TestGroupOccupancy holds the cut to it (0.57
// measured on the 16k Milky Way model at DefaultNGroup) and MakeGroupsScratch
// sizes its result from it.
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
	var child [8]int32 // cell in each child slot: the child's octant digit at this level
	var end [9]int32   // end[o]: first particle index past child slots [0, o)
	for ch := idx + 1; ch < c.Skip; ch = t.Cells[ch].Skip {
		o := t.Keys[t.Cells[ch].Start].Octant(int(c.Level))
		child[o], end[o+1] = ch, t.Cells[ch].N
	}
	end[0] = c.Start
	for o := range child {
		end[o+1] += end[o]
	}
	for lo, w := 0, 0; lo < 8; lo += w {
		for w = 1; w < 4 && lo%(2*w) == 0 && int(end[lo+2*w]-end[lo]) <= ngroup; w *= 2 {
		}
		switch n := end[lo+w] - end[lo]; {
		case n == 0:
		case int(n) > ngroup: // w == 1: one child, cut in turn
			groups = t.groupCuts(child[lo], ngroup, groups)
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
