package octree

import (
	"math"
	"sync"
	"sync/atomic"

	"bonsai/internal/grav"
	"bonsai/internal/obs"
	"bonsai/internal/vec"
)

// The walk view. Both walked trees — the local octree and a received LET —
// store their cells in depth-first preorder: the first child of cell i is
// i+1 and the whole subtree of i is the index range [i+1, Skip). One ViewCell
// per cell, holding everything a visit reads, turns the group traversal into
// a forward scan with no stack: accept → emit the cell and jump to Skip;
// opened leaf → emit its particle run and jump; otherwise step to i+1. The
// opening radius is squared once per cell per (tree, θ) instead of once per
// visit, with the expression of MACOpen, so every accept/open decision is the
// one the per-visit test made.

// ViewCell kinds.
const (
	ViewInner  int32 = iota // opened → descend (step to i+1)
	ViewLeaf                // opened → emit the particle run [Start, Start+N)
	ViewPruned              // LET cell cut below: opened → accepted anyway, counted as forced
)

// ViewCell is the 48-byte walk record of one cell. A massless cell is
// recorded as an always-opened empty leaf (Open2 = +Inf, N = 0), which skips
// its subtree without emitting anything.
type ViewCell struct {
	X, Y, Z float64 // centre of mass
	Open2   float64 // (Side/θ + Δ)²: the cell is opened iff dist²(group box, COM) < Open2
	Skip    int32   // index of the first cell after this cell's subtree
	Start   int32   // leaf: first source particle
	N       int32   // leaf: particle count
	Kind    int32
}

// SetMAC fills the record's opening radius for θ from the cell's side length,
// COM offset and mass.
func (c *ViewCell) SetMAC(side, delta, mass, theta float64) {
	if mass == 0 {
		c.Kind, c.N, c.Open2 = ViewLeaf, 0, math.Inf(1)
		return
	}
	open := side/theta + delta
	c.Open2 = open * open
}

// View caches a tree's walk records. They depend on θ (Open2), so the cache
// is built by the first walk that asks for a θ and reused by every later walk
// with the same θ; the owner invalidates it when the cells change. For is
// safe to call from concurrent walkers: a LET handed by reference to several
// ranks is viewed under the lock, once.
type View struct {
	mu    sync.Mutex
	cells []ViewCell
	theta float64
	valid bool
}

// invalidate marks the records stale after the owner rewrote its cells; the
// storage is kept for the rebuild. Must not run concurrently with walks (the
// cells themselves must not change under a walk either).
func (v *View) invalidate() { v.valid = false }

// For returns the n records for θ, calling fill to build them when the view is
// stale or holds another θ. A stale view is rebuilt in place; a θ change gets
// fresh storage, so walkers still scanning the previous θ's records are not
// disturbed.
func (v *View) For(theta float64, n int, fill func(cells []ViewCell, theta float64)) []ViewCell {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.valid && v.theta == theta {
		return v.cells
	}
	if v.valid || cap(v.cells) < n {
		v.cells = make([]ViewCell, n, n+n/8) // headroom: a rebuilt tree's cell count drifts step to step
	}
	v.cells = v.cells[:n]
	fill(v.cells, theta)
	v.theta, v.valid = theta, true
	return v.cells
}

// Source is a tree the shared walk runs over: its preorder walk records, and
// the storage the gather copies accepted multipoles and opened-leaf particle
// runs from. *Tree and *lettree.LET implement it.
type Source interface {
	WalkView(theta float64) []ViewCell
	Multipole(i int32) *grav.Multipole
	Particles() (pos []vec.V3, mass []float64)
}

// WalkView returns the tree's walk records for θ.
func (t *Tree) WalkView(theta float64) []ViewCell {
	return t.view.For(theta, len(t.Cells), t.fillView)
}

// Multipole returns cell i's multipole.
func (t *Tree) Multipole(i int32) *grav.Multipole { return &t.Cells[i].MP }

// Particles returns the source particles leaf runs index into.
func (t *Tree) Particles() ([]vec.V3, []float64) { return t.Pos, t.Mass }

// fillView copies the records out of Cells.
func (t *Tree) fillView(cells []ViewCell, theta float64) {
	for i := range cells {
		c := &t.Cells[i]
		v := ViewCell{X: c.MP.COM.X, Y: c.MP.COM.Y, Z: c.MP.COM.Z, Skip: c.Skip}
		if c.Leaf {
			v.Kind, v.Start, v.N = ViewLeaf, c.Start, c.N
		}
		v.SetMAC(c.Side, c.Delta, c.MP.M, theta)
		cells[i] = v
	}
}

// partRun is a contiguous run of source particles from one or more adjacent
// opened leaves.
type partRun struct{ start, n int32 }

// WalkLists is the per-group interaction list produced by a traversal. A
// WalkLists value owns its buffers, so reusing one across Collect calls is
// allocation free once they have grown to their working size.
type WalkLists struct {
	CellIdx []int32 // cells accepted as multipoles, in preorder
	PartIdx []int32 // source particles from opened leaves, ascending (filled by Collect only)

	runs   []partRun // opened leaves as merged particle runs
	nParts int       // particles in runs
}

// Collect traverses the tree for one target group box and fills the
// interaction lists; for callers that need the lists rather than the forces.
func (t *Tree) Collect(groupBox vec.Box, theta float64, out *WalkLists) {
	traverse(t.WalkView(theta), groupBox, out)
	np := out.nParts
	if cap(out.PartIdx) < np {
		out.PartIdx = make([]int32, np, np+np/4)
	}
	idx := out.PartIdx[:np]
	k := 0
	for _, r := range out.runs {
		for j := int32(0); j < r.n; j++ {
			idx[k] = r.start + j
			k++
		}
	}
	out.PartIdx = idx
}

// traverse is the one MAC traversal: a forward scan of the preorder records
// that fills out.CellIdx and out.runs and returns how many pruned cells the
// box needed opened but had to accept.
func traverse(cells []ViewCell, box vec.Box, out *WalkLists) (forced int64) {
	// A list cannot outgrow the cell count, so sizing for it once lets the
	// scan write by index.
	if n := len(cells); cap(out.CellIdx) < n || cap(out.runs) < n {
		out.CellIdx = make([]int32, n, n+n/8)
		out.runs = make([]partRun, n, n+n/8)
	}
	idx, runs := out.CellIdx[:len(cells)], out.runs[:len(cells)]
	nc, nr, np := 0, 0, 0
	end := int32(-1) // one past the last emitted run
	lo, hi := box.Min, box.Max
	for i := int32(0); int(i) < len(cells); {
		c := &cells[i]
		// box.Dist2(COM), term by term: Dist2 is too large to inline.
		dx := vec.AxisDist(c.X, lo.X, hi.X)
		dy := vec.AxisDist(c.Y, lo.Y, hi.Y)
		dz := vec.AxisDist(c.Z, lo.Z, hi.Z)
		if !(dx*dx+dy*dy+dz*dz < c.Open2) {
			idx[nc] = i
			nc++
			i = c.Skip
			continue
		}
		switch c.Kind {
		case ViewInner:
			i++
			continue
		case ViewLeaf:
			if c.Start == end {
				runs[nr-1].n += c.N
				end += c.N
			} else if c.N > 0 {
				runs[nr] = partRun{c.Start, c.N}
				nr++
				end = c.Start + c.N
			}
			np += int(c.N)
		default:
			idx[nc] = i
			nc++
			forced++
		}
		i = c.Skip
	}
	out.CellIdx, out.runs, out.nParts = idx[:nc], runs[:nr], np
	return forced
}

// Walker is one worker's walk scratch: the traversal lists and the SoA
// gather buffers the batched kernels evaluate from. Reusing one across
// groups and steps is allocation free once the buffers have grown.
type Walker struct {
	PC grav.PCSoA // accepted multipoles gathered since the last Reset
	PP grav.PPSoA // opened-leaf particles gathered since the last Reset

	lists WalkLists
	tg    grav.Targets
	srcs  []viewedSource // WalkSources' lead walker: the pass's trees, shared read-only with its workers
}

// viewedSource is one tree of a walk with its records for the walk's θ.
type viewedSource struct {
	src   Source
	cells []ViewCell
}

// Reset empties the gathered interaction list.
func (w *Walker) Reset() {
	w.PC.Reset()
	w.PP.Reset()
}

// Gather traverses cells (src's records for the walk's θ) for one group box
// and leaves that one tree's interaction list in w.PC and w.PP.
func (w *Walker) Gather(src Source, cells []ViewCell, box vec.Box) (forced int64) {
	w.Reset()
	return w.Append(src, cells, box)
}

// Append traverses cells (src's records for the walk's θ) for one group box
// and appends the tree's interaction list to w.PC and w.PP: accepted
// multipoles by index into the grown slices, opened leaves run by run. Called
// once per tree, it builds a group's one merged list over many trees.
func (w *Walker) Append(src Source, cells []ViewCell, box vec.Box) (forced int64) {
	forced = traverse(cells, box, &w.lists)

	if nc := len(w.lists.CellIdx); nc > 0 {
		pc := &w.PC
		o := pc.Len()
		pc.Resize(o + nc)
		x, y, z, m := pc.X[o:o+nc], pc.Y[o:o+nc], pc.Z[o:o+nc], pc.M[o:o+nc]
		xx, yy, zz := pc.XX[o:o+nc], pc.YY[o:o+nc], pc.ZZ[o:o+nc]
		xy, xz, yz := pc.XY[o:o+nc], pc.XZ[o:o+nc], pc.YZ[o:o+nc]
		for k, ci := range w.lists.CellIdx {
			mp := src.Multipole(ci)
			x[k], y[k], z[k], m[k] = mp.COM.X, mp.COM.Y, mp.COM.Z, mp.M
			xx[k], yy[k], zz[k] = mp.Quad.XX, mp.Quad.YY, mp.Quad.ZZ
			xy[k], xz[k], yz[k] = mp.Quad.XY, mp.Quad.XZ, mp.Quad.YZ
		}
	}

	if w.lists.nParts > 0 {
		pp := &w.PP
		o := pp.Len()
		pp.Resize(o + w.lists.nParts)
		pos, mass := src.Particles()
		for _, r := range w.lists.runs {
			n := int(r.n)
			px, py, pz := pp.X[o:o+n], pp.Y[o:o+n], pp.Z[o:o+n]
			for j, p := range pos[r.start : r.start+r.n] {
				px[j], py[j], pz[j] = p.X, p.Y, p.Z
			}
			copy(pp.M[o:o+n], mass[r.start:r.start+r.n])
			o += n
		}
	}
	return forced
}

// walkGroup gathers one group's interaction list over every tree of the walk
// and evaluates the whole group against the whole list through the batched
// kernels: one target gather, one PCBatch, one PPBatch, one scatter, however
// many trees contributed. Each group writes a disjoint [Start, Start+N) range
// of acc/pot, so concurrent workers never contend.
func (w *Walker) walkGroup(srcs []viewedSource, g *Group, tpos []vec.V3, eps2 float64,
	acc []vec.V3, pot []float64, st *grav.Stats, listLen *obs.Hist) (forced int64) {

	w.Reset()
	for i := range srcs {
		forced += w.Append(srcs[i].src, srcs[i].cells, g.Box)
	}
	lo, hi := g.Start, g.Start+g.N
	tg := &w.tg
	tg.Gather(tpos[lo:hi])
	listLen.Observe(int64(w.PC.Len() + w.PP.Len()))

	grav.PCBatch(tg.X, tg.Y, tg.Z, &w.PC, eps2, tg.AX, tg.AY, tg.AZ, tg.Pot)
	grav.PPBatch(tg.X, tg.Y, tg.Z, &w.PP, eps2, tg.AX, tg.AY, tg.AZ, tg.Pot)
	tg.Scatter(acc[lo:hi], pot[lo:hi])

	st.PC += uint64(w.PC.Len()) * uint64(g.N)
	st.PP += uint64(w.PP.Len()) * uint64(g.N)
	return forced
}

var walkerPool = sync.Pool{New: func() any { return &Walker{} }}

// WalkSources is the one walk routine. It accumulates into acc and pot the
// forces the mass of every tree in srcs exerts on the target particles, and
// returns the number of forced accepts (always zero for an octree). Each
// group is traversed against each tree separately — the MAC decisions and
// interaction counts are those of one walk per tree — but the accepted cells
// and opened-leaf particles of all the trees are gathered, in srcs order,
// into one list per group, so the kernels see one long list instead of
// len(srcs) short ones.
//
// The walk is parallel over groups with the given worker count (<=0 means 1):
// workers claim groups from a shared atomic counter, so no worker ever blocks
// on a feeder channel and the tail of the group list is stolen by whichever
// workers finish early. Interaction counts are added to st if non-nil, merged
// with atomic adds; every group's merged list length is recorded into listLen
// if non-nil.
func WalkSources(srcs []Source, groups []Group, tpos []vec.V3, theta, eps2 float64,
	acc []vec.V3, pot []float64, workers int, st *grav.Stats, listLen *obs.Hist) (forced int64) {

	if len(groups) == 0 {
		return 0
	}
	lead := walkerPool.Get().(*Walker)
	defer func() {
		clear(lead.srcs) // a pooled walker must not keep the pass's trees alive
		walkerPool.Put(lead)
	}()
	lead.srcs = lead.srcs[:0]
	for _, src := range srcs {
		if cells := src.WalkView(theta); len(cells) > 0 {
			lead.srcs = append(lead.srcs, viewedSource{src, cells})
		}
	}
	viewed := lead.srcs
	if len(viewed) == 0 {
		return 0
	}
	if workers <= 1 {
		var local grav.Stats
		for g := range groups {
			forced += lead.walkGroup(viewed, &groups[g], tpos, eps2, acc, pot, &local, listLen)
		}
		if st != nil {
			st.Add(local)
		}
		return forced
	}

	var wg sync.WaitGroup
	var next, forcedTotal atomic.Int64
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local grav.Stats
			var forced int64
			w := walkerPool.Get().(*Walker)
			for {
				g := int(next.Add(1)) - 1
				if g >= len(groups) {
					break
				}
				forced += w.walkGroup(viewed, &groups[g], tpos, eps2, acc, pot, &local, listLen)
			}
			walkerPool.Put(w)
			if st != nil {
				st.AddAtomic(local)
			}
			forcedTotal.Add(forced)
		}()
	}
	wg.Wait()
	return forcedTotal.Load()
}

// WalkSource is the one-tree case of WalkSources.
func WalkSource(src Source, groups []Group, tpos []vec.V3, theta, eps2 float64,
	acc []vec.V3, pot []float64, workers int, st *grav.Stats, listLen *obs.Hist) (forced int64) {
	return WalkSources([]Source{src}, groups, tpos, theta, eps2, acc, pot, workers, st, listLen)
}

// Walk computes gravitational forces exerted by this tree's mass distribution
// on the target particles (see WalkSource). Results are *accumulated* into
// acc and pot; callers zero them first when appropriate.
func (t *Tree) Walk(groups []Group, tpos []vec.V3, theta, eps2 float64,
	acc []vec.V3, pot []float64, workers int, st *grav.Stats) {
	WalkSource(t, groups, tpos, theta, eps2, acc, pot, workers, st, nil)
}

// WalkObs is Walk with an optional observability hook: when listLen is
// non-nil, the interaction-list length (accepted cells + opened-leaf
// particles) of every target group is recorded into it. A nil listLen is the
// disabled state and costs one branch per group.
func (t *Tree) WalkObs(groups []Group, tpos []vec.V3, theta, eps2 float64,
	acc []vec.V3, pot []float64, workers int, st *grav.Stats, listLen *obs.Hist) {
	WalkSource(t, groups, tpos, theta, eps2, acc, pot, workers, st, listLen)
}
