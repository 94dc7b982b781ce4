// Package lettree implements the Local Essential Tree (LET) machinery of the
// paper's multi-GPU parallelization (§III.B.2):
//
//   - Boundary trees: a shallow multipole-only truncation of the local
//     octree that every rank pushes to every peer. The paper reuses this structure for
//     two purposes: as the remote-domain geometry description needed to
//     build LETs, and — for sufficiently distant rank pairs — directly as
//     the LET itself, avoiding any further communication.
//
//   - The sufficiency predicate: a receiver-reproducible MAC check deciding
//     whether a boundary tree alone can serve a target domain. Both the
//     sender and the receiver evaluate the same predicate on the same
//     two boundary trees ("double the compute work", as the paper puts it),
//     so no request/acknowledge round-trip is ever needed: the exchange is
//     push-only.
//
//   - Full LET construction: a walk of the local octree against a remote
//     domain's bounding geometry that emits exactly the cells and particles
//     the remote rank could need for any target group inside its domain.
//
// A LET is a standalone serializable tree; the receiver computes gravity
// from it directly ("processed separately as soon as they arrive"), which is
// what lets communication hide behind the local-tree computation.
package lettree

import (
	"bonsai/internal/grav"
	"bonsai/internal/obs"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// DefaultBoundaryDepth is how many levels of the local tree a boundary tree
// retains below its root.
const DefaultBoundaryDepth = 4

// Cell is one LET node. Cells are stored in depth-first preorder: an inner
// cell's first child is the next cell, and its subtree is the index range up
// to Skip. Kind is the walk view's own: octree.ViewInner, octree.ViewLeaf
// (carries the particles [Start, Start+N) of LET.Pos / LET.Mass), or
// octree.ViewPruned — only the multipole, the structure below was cut because
// (by the MAC) no target in the destination domain can ever need to open it.
type Cell struct {
	MP       grav.Multipole
	Side     float64
	Delta    float64
	Skip     int32 // index of the first cell after this cell's subtree
	Start, N int32 // leaf particle range
	Kind     int32
}

// LET is a standalone essential tree: the root is Cells[0].
type LET struct {
	Cells []Cell
	// Pos and Mass are the source particles the leaves carry, in leaf order.
	Pos  []vec.V3
	Mass []float64
	// Box is the bounding box of the *owning* rank's particles; for boundary
	// trees this doubles as the remote-domain geometry other ranks test
	// against.
	Box vec.Box

	// view caches the walk records (octree.View). A LET is immutable once
	// built, so the view is never invalidated; a boundary tree handed by
	// reference to every rank is viewed once, under the view's lock.
	view octree.View
}

// Empty reports whether the LET carries no mass.
func (l *LET) Empty() bool { return l == nil || len(l.Cells) == 0 }

// ---------------------------------------------------------------------------
// Construction

// BoundaryTree extracts the top `depth` levels of the local octree. Cells at
// the cut that still have substructure are pruned and carry only
// multipoles; true leaves within the retained depth keep their
// particles, so the boundary tree is exact for any viewer it is sufficient
// for.
func BoundaryTree(t *octree.Tree, depth int, localBox vec.Box) *LET {
	if depth <= 0 {
		depth = DefaultBoundaryDepth
	}
	return extract(t, localBox, 0, func(c *octree.Cell) bool {
		return c.Leaf || int(c.Level) < depth
	})
}

// BuildFor constructs the full LET of the local octree for a remote domain
// whose particles lie inside remoteBox: every local cell that the MAC might
// require the remote to open is expanded, every distant cell is emitted as a
// closed multipole, and opened leaves contribute their particles.
//
// BuildFor only reads the source tree's cells and particles, never its walk
// view, which is why builder goroutines can run against the shared tree
// concurrently with the walks. Cell storage is preallocated from the source
// tree size: LETs for nearby domains approach the full tree, distant ones
// stay tiny, and a quarter-size initial capacity avoids the repeated append
// regrowth that dominated construction for near neighbours.
func BuildFor(t *octree.Tree, remoteBox vec.Box, theta float64, localBox vec.Box) *LET {
	return extract(t, localBox, len(t.Cells)/4+8, func(c *octree.Cell) bool {
		return octree.MACOpen(remoteBox, c, theta)
	})
}

// extract copies the part of the octree that expand selects into a LET, in
// the octree's own depth-first order: a cell expand rejects is emitted
// pruned, an expanded leaf carries its particles, an expanded inner cell is
// followed by its children.
func extract(t *octree.Tree, localBox vec.Box, cellCap int, expand func(c *octree.Cell) bool) *LET {
	out := &LET{Box: localBox}
	if len(t.Cells) == 0 {
		return out
	}
	out.Cells = make([]Cell, 0, cellCap)
	var rec func(src int32)
	rec = func(src int32) {
		sc := &t.Cells[src]
		idx := len(out.Cells)
		c := Cell{MP: sc.MP, Side: sc.Side, Delta: sc.Delta, Kind: octree.ViewPruned}
		if expand(sc) {
			c.Kind = octree.ViewInner
			if sc.Leaf {
				c.Kind, c.Start, c.N = octree.ViewLeaf, int32(len(out.Pos)), sc.N
				out.Pos = append(out.Pos, t.Pos[sc.Start:sc.Start+sc.N]...)
				out.Mass = append(out.Mass, t.Mass[sc.Start:sc.Start+sc.N]...)
			}
		}
		out.Cells = append(out.Cells, c)
		if c.Kind == octree.ViewInner {
			for ch := src + 1; ch < sc.Skip; ch = t.Cells[ch].Skip {
				rec(ch)
			}
		}
		out.Cells[idx].Skip = int32(len(out.Cells))
	}
	rec(0)
	return out
}

// ---------------------------------------------------------------------------
// The walk view

// WalkView returns the LET's walk records for θ (octree.Source); none for an
// empty LET, which every walk therefore skips.
func (l *LET) WalkView(theta float64) []octree.ViewCell {
	if l.Empty() {
		return nil
	}
	return l.view.For(theta, len(l.Cells), l.fillView)
}

// Multipole returns cell i's multipole (octree.Source).
func (l *LET) Multipole(i int32) *grav.Multipole { return &l.Cells[i].MP }

// Particles returns the source particles leaf runs index into (octree.Source).
func (l *LET) Particles() ([]vec.V3, []float64) { return l.Pos, l.Mass }

func (l *LET) fillView(cells []octree.ViewCell, theta float64) {
	for i := range cells {
		c := &l.Cells[i]
		v := octree.ViewCell{X: c.MP.COM.X, Y: c.MP.COM.Y, Z: c.MP.COM.Z,
			Skip: c.Skip, Start: c.Start, N: c.N, Kind: c.Kind}
		v.SetMAC(c.Side, c.Delta, c.MP.M, theta)
		cells[i] = v
	}
}

// ---------------------------------------------------------------------------
// Sufficiency

// Sufficient reports whether the LET (typically a boundary tree) contains
// enough structure to compute MAC-accurate forces for any target group
// inside targetBox: its traversal from targetBox never tries to open a
// pruned cell. Both sides of a rank pair evaluate this on identical inputs,
// which is what makes the paper's push protocol handshake-free.
func Sufficient(l *LET, targetBox vec.Box, theta float64) bool {
	// An empty target box (a rank with no active walk targets this substep)
	// opens nothing: any tree is sufficient. Both the would-be sender and the
	// receiver see the same empty box, so neither builds nor expects a LET.
	if l.Empty() || targetBox.Empty() {
		return true
	}
	cells := l.WalkView(theta)
	for i := 0; i < len(cells); {
		c := &cells[i]
		switch {
		case !(targetBox.Dist2(vec.V3{X: c.X, Y: c.Y, Z: c.Z}) < c.Open2):
			i = int(c.Skip)
		case c.Kind == octree.ViewPruned:
			return false
		case c.Kind == octree.ViewInner:
			i++
		default:
			i = int(c.Skip)
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Gravity from a LET

// Walk accumulates the gravitational forces exerted by the LET's mass on the
// target particles (grouped as in the local walk). ForcedAccepts counts
// pruned cells that a group needed to open but could not — always zero when
// the LET was built or vetted for these targets; non-zero values indicate a
// protocol violation and are surfaced through the returned count.
func Walk(l *LET, groups []octree.Group, tpos []vec.V3, theta, eps2 float64,
	acc []vec.V3, pot []float64, workers int, st *grav.Stats) (forcedAccepts int64) {
	return WalkObs(l, groups, tpos, theta, eps2, acc, pot, workers, st, nil)
}

// WalkObs is Walk with an optional observability hook: when listLen is
// non-nil, the interaction-list length of every target group is recorded into
// it. A nil listLen costs one branch per group.
func WalkObs(l *LET, groups []octree.Group, tpos []vec.V3, theta, eps2 float64,
	acc []vec.V3, pot []float64, workers int, st *grav.Stats, listLen *obs.Hist) (forcedAccepts int64) {
	return octree.WalkSource(l, groups, tpos, theta, eps2, acc, pot, workers, st, listLen)
}

// TotalMass returns the LET root's mass.
func (l *LET) TotalMass() float64 {
	if l.Empty() {
		return 0
	}
	return l.Cells[0].MP.M
}
