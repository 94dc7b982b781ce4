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
	"bonsai/internal/keys"
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
	// built, so the view is never invalidated: BuildFor fills it for its θ
	// as it builds the cells, and a boundary tree handed by reference to
	// every rank, or a decoded LET, is viewed by its first walk, under the
	// view's lock.
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
// for. Its walk records are built by the first walk that asks (WalkView):
// every peer views it at the same θ, once.
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
// closed multipole, and opened leaves contribute their particles. The LET
// arrives with its walk records for θ already built, so a receiver holding
// it by reference walks it without a view pass.
//
// BuildFor only reads the source tree's cells and particles, never its walk
// view, which is why builder goroutines can run against the shared tree
// concurrently with the walks.
func BuildFor(t *octree.Tree, remoteBox vec.Box, theta float64, localBox vec.Box) *LET {
	return extract(t, localBox, theta, func(c *octree.Cell) bool {
		return octree.MACOpen(remoteBox, c, theta)
	})
}

// extract copies the part of the octree that expand selects into a LET, in
// the octree's own depth-first order: a cell expand rejects is emitted
// pruned, an expanded leaf carries its particles, an expanded inner cell is
// followed by its children. It is the walk's forward scan (octree.traverse)
// over the source's preorder cells: an expanded inner cell steps to the next
// cell, anything else jumps to its Skip. A first scan only counts, so the
// second writes into Cells, Pos and Mass at their final size; with
// viewTheta > 0 it writes the walk records for that θ beside them.
func extract(t *octree.Tree, localBox vec.Box, viewTheta float64, expand func(c *octree.Cell) bool) *LET {
	out := &LET{Box: localBox}
	if len(t.Cells) == 0 {
		return out
	}
	nc, np := 0, 0
	for i := int32(0); int(i) < len(t.Cells); nc++ {
		sc := &t.Cells[i]
		switch {
		case !expand(sc):
			i = sc.Skip
		case sc.Leaf:
			np += int(sc.N)
			i = sc.Skip
		default:
			i++
		}
	}
	cells := make([]Cell, nc)
	pos, mass := make([]vec.V3, np), make([]float64, np)
	var rec []octree.ViewCell
	if viewTheta > 0 {
		rec = make([]octree.ViewCell, nc)
	}

	// open holds the expanded inner cells the scan is inside, innermost last:
	// the source index their subtree ends at, and their own LET index, whose
	// Skip is written when the scan gets there.
	type span struct{ end, at int32 }
	open := make([]span, 0, keys.Bits+1)
	k, p := int32(0), int32(0) // cells and particles written
	for i := int32(0); ; k++ {
		for n := len(open); n > 0 && open[n-1].end == i; n-- {
			at := open[n-1].at
			cells[at].Skip = k
			if rec != nil {
				rec[at].Skip = k
			}
			open = open[:n-1]
		}
		if int(i) == len(t.Cells) {
			break
		}
		sc := &t.Cells[i]
		c := &cells[k] // fresh storage: Start and N are zero
		c.MP, c.Side, c.Delta, c.Skip, c.Kind = sc.MP, sc.Side, sc.Delta, k+1, octree.ViewPruned
		next := sc.Skip
		if expand(sc) {
			if sc.Leaf {
				c.Kind, c.Start, c.N = octree.ViewLeaf, p, sc.N
				copy(pos[p:], t.Pos[sc.Start:sc.Start+sc.N])
				copy(mass[p:], t.Mass[sc.Start:sc.Start+sc.N])
				p += sc.N
			} else {
				c.Kind = octree.ViewInner
				open = append(open, span{sc.Skip, k})
				next = i + 1
			}
		}
		if rec != nil {
			c.record(&rec[k], viewTheta)
		}
		i = next
	}
	out.Cells, out.Pos, out.Mass = cells, pos, mass
	if rec != nil {
		out.view.Set(viewTheta, rec)
	}
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
		l.Cells[i].record(&cells[i], theta)
	}
}

// record writes the cell's walk record for θ to v.
func (c *Cell) record(v *octree.ViewCell, theta float64) {
	v.X, v.Y, v.Z = c.MP.COM.X, c.MP.COM.Y, c.MP.COM.Z
	v.Skip, v.Start, v.N, v.Kind = c.Skip, c.Start, c.N, c.Kind
	v.SetMAC(c.Side, c.Delta, c.MP.M, theta)
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
	return octree.WalkSource(l, groups, tpos, theta, eps2, acc, pot, workers, st)
}

// TotalMass returns the LET root's mass.
func (l *LET) TotalMass() float64 {
	if l.Empty() {
		return 0
	}
	return l.Cells[0].MP.M
}
