// Package octree implements the Barnes–Hut octree of the tree-code: sparse
// construction over Morton-sorted particles (NLEAF-bounded leaves), bottom-up
// multipole moments (centre of mass + raw quadrupole tensor), and the
// group-based breadth-first tree-walk with the Bonsai multipole acceptance
// criterion (MAC).
//
// The construction mirrors the GPU pipeline of the paper: particles are
// sorted along the space-filling curve first, so every octree cell is a
// contiguous range [Start, Start+N) of the particle arrays and the eight
// children of a cell are found by binary search on the 3-bit Morton digit of
// the cell's level. Tree-walks are performed for *groups* of spatially
// adjacent particles (the warp-sized "target groups" of the GPU kernel): one
// interaction list is built per group against the group's bounding box and
// then evaluated for every particle in the group.
package octree

import (
	"bonsai/internal/grav"
	"bonsai/internal/keys"
	"bonsai/internal/vec"
)

// DefaultNLeaf is the maximum number of particles in a leaf cell. It is a
// measured value, not the paper's 16 (a GPU warp's half): with DefaultNGroup
// it is the pair that won or tied step time on every benchmark workload
// (EXPERIMENTS.md "Twice the targets per walk").
const DefaultNLeaf = 32

// DefaultNGroup is the most targets a tree-walk group holds. It is a measured
// value, not the paper's 64 (a warp multiple): every group pays one
// traversal, one gather and one narrowing pass whatever it holds, and 128 is
// the largest size the float32 kernels' error budget allows
// (TestFloat32ErrorBudget in internal/grav fails its maximum at 256).
const DefaultNGroup = 128

// Cell is one octree node. Particles of the cell occupy the contiguous range
// [Start, Start+N) of the tree's particle arrays. Cells sit in depth-first
// preorder, and that order is the only record of the topology: the subtree of
// cell i is the index range [i+1, Skip), its children are i+1, Cells[i+1].Skip,
// and so on up to Skip, in ascending octant order.
type Cell struct {
	Level    int32 // depth; 0 is the root
	Start, N int32
	Skip     int32 // index of the first cell after this cell's subtree
	Leaf     bool

	Box   vec.Box        // geometric (cubic) cell box
	MP    grav.Multipole // mass, centre of mass, quadrupole about the COM
	Side  float64        // cell side length l
	Delta float64        // |COM − geometric centre| (the MAC offset δ)
}

// Tree is a built octree over Morton-sorted particles. The particle slices
// are owned by the caller and must not be mutated while the tree is in use.
type Tree struct {
	Cells []Cell
	Keys  []keys.Key
	Pos   []vec.V3
	Mass  []float64
	Grid  keys.Grid
	NLeaf int

	// Partition of Cells recorded by BuildStructureScratch for workers > 1
	// (nil otherwise): the top cells in depth-first order, and the contiguous
	// spans of the whole subtrees below them. ComputePropertiesParallel
	// sweeps the spans concurrently and finishes the top cells serially;
	// every child of a top cell is either a later top cell or a span root, so
	// the order is always safe.
	topCells []int32
	subSpans []cellSpan

	// view caches the walk records (view.go). Every properties sweep
	// invalidates it; the next walk rebuilds it for its θ.
	view View
}

// Build constructs an octree (structure and multipole properties) over
// particles that are already sorted by their Morton keys (ks[i] must equal
// grid.MortonOf(pos[i]) and be ascending). nleaf <= 0 selects DefaultNLeaf.
//
// Build is equivalent to BuildStructure followed by ComputeProperties; the
// sim layer calls the two stages separately because the paper's Table II
// times "Tree-construction" and "Tree-properties" as distinct GPU phases.
func Build(ks []keys.Key, pos []vec.V3, mass []float64, grid keys.Grid, nleaf int) *Tree {
	t := BuildStructure(ks, pos, mass, grid, nleaf)
	t.ComputeProperties()
	return t
}

// BuildStructure constructs the cell hierarchy and geometry only; multipole
// moments (and the MAC offset δ that depends on them) are left zero until
// ComputeProperties runs.
func BuildStructure(ks []keys.Key, pos []vec.V3, mass []float64, grid keys.Grid, nleaf int) *Tree {
	return BuildStructureScratch(new(BuildScratch), ks, pos, mass, grid, nleaf, 1)
}

// ComputeProperties fills in multipole moments bottom-up. Children follow
// their parent in the preorder, so a reverse index sweep visits every child
// before its parent.
// ComputePropertiesParallel is the multicore variant; both produce
// bitwise-identical moments.
func (t *Tree) ComputeProperties() {
	t.view.invalidate()
	for i := len(t.Cells) - 1; i >= 0; i-- {
		t.momentsAt(int32(i))
	}
}

// RefreshProperties recomputes multipole moments (and the MAC offsets that
// depend on them) over the EXISTING cell structure after particle positions
// were updated in place — the incremental properties path of block-timestep
// substeps. Cell geometry (Box, Side), the Morton order, and the particle →
// cell ranges are all kept; only the moments sweep reruns, so a refresh
// costs the "Tree-properties" phase alone instead of sort+build+properties.
// Callers are responsible for bounding the drift since the last full build
// (see sim's rebuild criterion): once particles leave their cells, group
// boxes and cell boxes no longer contain them and the MAC degrades.
func (t *Tree) RefreshProperties(workers int) {
	t.ComputePropertiesParallel(workers)
}

// MinLeafSide returns the smallest leaf-cell side length, the length scale
// against which position drift is compared to decide whether a reused tree
// structure is still acceptable. Returns 0 for an empty tree.
func (t *Tree) MinLeafSide() float64 {
	min := 0.0
	for i := range t.Cells {
		c := &t.Cells[i]
		if !c.Leaf {
			continue
		}
		if min == 0 || c.Side < min {
			min = c.Side
		}
	}
	return min
}

// momentsAt computes one cell's multipole and MAC offset from its particles
// (leaves) or already-finished children (inner cells). It is the unit of
// work both property sweeps share, so serial and parallel sweeps are
// bitwise identical by construction.
func (t *Tree) momentsAt(i int32) {
	if t.Cells[i].Leaf {
		t.leafMoments(i)
	} else {
		t.innerMoments(i)
	}
	c := &t.Cells[i]
	c.Delta = c.MP.COM.Sub(c.Box.Center()).Norm()
}

// build appends the cell covering sorted range [start, end) at the given
// level, then its subtree depth first, and closes the cell's Skip over it.
func (t *Tree) build(level, start, end int32) {
	idx := int32(len(t.Cells))
	t.Cells = append(t.Cells, Cell{Level: level, Start: start, N: end - start, Skip: idx + 1})
	t.cellGeometry(&t.Cells[idx])

	if end-start <= int32(t.NLeaf) || level >= keys.Bits {
		t.Cells[idx].Leaf = true
		return
	}

	// Partition [start, end) into octants by the 3-bit digit at this level.
	var bounds [9]int32
	bounds[0] = start
	for oct := 0; oct < 8; oct++ {
		bounds[oct+1] = t.upperBound(bounds[oct], end, level, oct)
	}
	for oct := 0; oct < 8; oct++ {
		if lo, hi := bounds[oct], bounds[oct+1]; lo < hi {
			t.build(level+1, lo, hi)
		}
	}
	t.Cells[idx].Skip = int32(len(t.Cells))
}

// upperBound returns the first index in [lo, end) whose key's octant digit at
// the level exceeds oct (i.e. the end of octant oct's range).
func (t *Tree) upperBound(lo, end, level int32, oct int) int32 {
	for lo < end {
		mid := (lo + end) / 2
		if t.Keys[mid].Octant(int(level)) <= oct {
			lo = mid + 1
		} else {
			end = mid
		}
	}
	return lo
}

func (t *Tree) leafMoments(idx int32) {
	c := &t.Cells[idx]
	var m float64
	var com vec.V3
	for i := c.Start; i < c.Start+c.N; i++ {
		m += t.Mass[i]
		com = com.Add(t.Pos[i].Scale(t.Mass[i]))
	}
	if m > 0 {
		com = com.Scale(1 / m)
	}
	var q vec.Sym3
	for i := c.Start; i < c.Start+c.N; i++ {
		d := t.Pos[i].Sub(com)
		q = q.Add(vec.Outer(t.Mass[i], d))
	}
	c.MP = grav.Multipole{COM: com, M: m, Quad: q}
}

func (t *Tree) innerMoments(idx int32) {
	c := &t.Cells[idx]
	var m float64
	var com vec.V3
	for ch := idx + 1; ch < c.Skip; ch = t.Cells[ch].Skip {
		mp := t.Cells[ch].MP
		m += mp.M
		com = com.Add(mp.COM.Scale(mp.M))
	}
	if m > 0 {
		com = com.Scale(1 / m)
	}
	var q vec.Sym3
	for ch := idx + 1; ch < c.Skip; ch = t.Cells[ch].Skip {
		mp := t.Cells[ch].MP
		d := mp.COM.Sub(com)
		// Parallel-axis combination of raw second moments.
		q = q.Add(mp.Quad).Add(vec.Outer(mp.M, d))
	}
	c.MP = grav.Multipole{COM: com, M: m, Quad: q}
}

func (t *Tree) cellGeometry(c *Cell) {
	x, y, z := t.Grid.Coords(t.Pos[c.Start])
	c.Box = t.Grid.CellBox(x, y, z, int(c.Level))
	c.Side = c.Box.Size().X
}

// NumParticles returns the number of particles the tree was built over.
func (t *Tree) NumParticles() int { return len(t.Pos) }

// ---------------------------------------------------------------------------
// Target groups

// Group is a set of spatially adjacent target particles that share one
// interaction list, the CPU analogue of the GPU kernel's particle groups.
type Group struct {
	Start, N int32
	Box      vec.Box
}

// MakeGroups partitions the tree's particles into groups of at most ngroup
// particles. Under a cell that holds more, sibling cells are packed: a group
// is the largest aligned span of the cell's eight child slots — a half, a
// quarter, a pair or one child, the binary hierarchy of the Morton digit —
// whose particles total at most ngroup, so it is one box inside one parent
// cell and one contiguous range of the particle arrays. Only a single leaf
// (NLeaf > ngroup, or a max-depth leaf) can exceed ngroup. The groups cover
// every particle exactly once, in ascending order, and carry the tight
// bounding box of the particles they contain. ngroup <= 0 selects
// DefaultNGroup.
//
// MakeGroups is the convenience form of MakeGroupsScratch: one worker, a
// fresh result slice.
func (t *Tree) MakeGroups(ngroup int) []Group {
	return t.MakeGroupsScratch(ngroup, 1, nil)
}

// GroupsOf builds groups directly over an externally supplied ordered
// position array by cutting it into fixed-size runs; used for targets that do
// not have a tree of their own.
func GroupsOf(pos []vec.V3, ngroup int) []Group {
	return GroupsOfScratch(pos, ngroup, 1, nil)
}

// boundsOf is the tight bounding box of a position run — the O(N) part of
// group building, parallelized across groups by the scratch variants.
func boundsOf(pos []vec.V3) vec.Box {
	b := vec.EmptyBox()
	for _, p := range pos {
		b = b.Extend(p)
	}
	return b
}

// ---------------------------------------------------------------------------
// Tree walk

// MACOpen reports whether a cell must be opened for a target group box under
// the Bonsai MAC: open iff d < l/θ + δ, where d is the minimum distance from
// the group box to the cell's centre of mass, l the cell side length and δ
// the COM offset from the geometric centre. The walks test the same
// inequality against the squared radius their view precomputed
// (ViewCell.SetMAC); the LET builder calls this per-cell form.
func MACOpen(groupBox vec.Box, c *Cell, theta float64) bool {
	open := c.Side/theta + c.Delta
	return groupBox.Dist2(c.MP.COM) < open*open
}

// TotalMass returns the mass of the root cell (zero for an empty tree).
func (t *Tree) TotalMass() float64 {
	if len(t.Cells) == 0 {
		return 0
	}
	return t.Cells[0].MP.M
}

// Depth returns the maximum cell level in the tree plus one (zero for an
// empty tree).
func (t *Tree) Depth() int {
	d := int32(-1)
	for i := range t.Cells {
		if t.Cells[i].Level > d {
			d = t.Cells[i].Level
		}
	}
	return int(d + 1)
}
