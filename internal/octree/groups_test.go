package octree

import (
	"fmt"
	"slices"
	"testing"

	"bonsai/internal/ic"
	"bonsai/internal/vec"
)

// groupSpan locates a group in the tree: the cell `parent` and the aligned
// child-slot span [lo, lo+w) whose children hold exactly the group's
// particles. A group that is one whole cell is the w = 1 span of that cell's
// parent; the root emitted as a group has parent noCell. kids is the tree's
// childTable.
func groupSpan(t *testing.T, tr *Tree, kids [][8]int32, g Group) (parent int32, lo, w int) {
	t.Helper()
	s, e := g.Start, g.Start+g.N
	parent = noCell
	c := int32(0)
	for {
		cell := &tr.Cells[c]
		if cell.Start == s && cell.Start+cell.N == e {
			if parent == noCell {
				return noCell, 0, 8
			}
			for o, ch := range kids[parent] {
				if ch == c {
					return parent, o, 1
				}
			}
		}
		if cell.Leaf {
			t.Fatalf("group [%d,%d) is a strict part of leaf %d", s, e, c)
		}
		first, last, sum := -1, -1, int32(0)
		for o, ch := range kids[c] {
			if ch == noCell {
				continue
			}
			cs, ce := tr.Cells[ch].Start, tr.Cells[ch].Start+tr.Cells[ch].N
			if ce <= s || cs >= e {
				continue
			}
			if first < 0 {
				first = o
			}
			last = o
			if cs >= s && ce <= e {
				sum += ce - cs
			}
		}
		if first == last && sum != g.N { // strictly inside one child: descend
			parent, c = c, kids[c][first]
			continue
		}
		if sum != g.N {
			t.Fatalf("group [%d,%d) cuts through a child of cell %d", s, e, c)
		}
		for w = 1; w < 8; w *= 2 {
			if lo = first &^ (w - 1); last < lo+w {
				return c, lo, w
			}
		}
		t.Fatalf("group [%d,%d) spans slots %d..%d of cell %d: no aligned span below 8", s, e, first, last, c)
	}
}

// slotsTotal sums the particles under child slots [lo, lo+w) of cell c and
// returns the bounding box of those children's cell boxes.
func slotsTotal(tr *Tree, kids [][8]int32, c int32, lo, w int) (int32, vec.Box) {
	var n int32
	box := vec.EmptyBox()
	for _, ch := range kids[c][lo : lo+w] {
		if ch != noCell {
			n += tr.Cells[ch].N
			box = box.Union(tr.Cells[ch].Box)
		}
	}
	return n, box
}

// boxInside reports whether in lies inside out grown by tol on every side
// (Grid.CellBox computes a child's faces and its parent's independently, so
// shared faces agree to an ulp, not bitwise).
func boxInside(in, out vec.Box, tol float64) bool {
	pad := vec.V3{X: tol, Y: tol, Z: tol}
	grown := vec.Box{Min: out.Min.Sub(pad), Max: out.Max.Add(pad)}
	return grown.Contains(in.Min) && grown.Contains(in.Max)
}

// checkGroups asserts every property the cut promises for one (tree, ngroup).
func checkGroups(t *testing.T, tr *Tree, ngroup int, groups []Group) {
	t.Helper()
	kids := childTable(tr)
	next := int32(0)
	for gi, g := range groups {
		if g.Start != next || g.N <= 0 {
			t.Fatalf("group %d = [%d,+%d): want start %d, N > 0 (ascending, contiguous, disjoint)", gi, g.Start, g.N, next)
		}
		next += g.N
		if g.Box != boundsOf(tr.Pos[g.Start:g.Start+g.N]) {
			t.Fatalf("group %d: box is not the tight box of its particles", gi)
		}

		parent, lo, w := groupSpan(t, tr, kids, g)
		if parent == noCell { // the root is the one group
			if len(groups) != 1 || (!tr.Cells[0].Leaf && int(g.N) > ngroup) {
				t.Fatalf("root emitted as group %d of %d with N=%d, ngroup %d", gi, len(groups), g.N, ngroup)
			}
			continue
		}
		if int(g.N) > ngroup && !(w == 1 && tr.Cells[kids[parent][lo]].Leaf) {
			t.Fatalf("group %d: N=%d > ngroup %d and not a single leaf", gi, g.N, ngroup)
		}

		// Aligned slots are one box: the group's box lies in the bounding box
		// of the span's child cells, which is no larger than w child cells.
		p := &tr.Cells[parent]
		n, box := slotsTotal(tr, kids, parent, lo, w)
		if n != g.N {
			t.Fatalf("group %d: span [%d,+%d) of cell %d holds %d, group %d", gi, lo, w, parent, n, g.N)
		}
		if !boxInside(g.Box, box, 1e-12*p.Side) || !boxInside(box, p.Box, 1e-12*p.Side) {
			t.Fatalf("group %d: box %+v outside its span's box %+v (parent %+v)", gi, g.Box, box, p.Box)
		}
		sz := box.Size()
		if child := p.Side / 2; sz.X*sz.Y*sz.Z > float64(w)*child*child*child*(1+1e-9) {
			t.Fatalf("group %d: slots [%d,+%d) bound %v, more than %d child cells of side %g", gi, lo, w, sz, w, child)
		}

		// Largest: every wider aligned span around it either adds nothing
		// (empty siblings) or exceeds ngroup.
		for ww := 2 * w; ww <= 8; ww *= 2 {
			if wn, _ := slotsTotal(tr, kids, parent, lo&^(ww-1), ww); wn != g.N && int(wn) <= ngroup {
				t.Fatalf("group %d: N=%d but the aligned %d-span around it holds %d <= ngroup %d", gi, g.N, ww, wn, ngroup)
			}
		}
	}
	if int(next) != len(tr.Pos) {
		t.Fatalf("groups cover %d of %d particles", next, len(tr.Pos))
	}
}

// TestGroupCutProperties holds the aligned cut to its contract over random
// clustered clouds, with NLeaf on both sides of ngroup: every particle in
// exactly one group, groups ascending and contiguous, N <= ngroup unless the
// group is a single leaf, each group exactly one cell or one aligned span
// (< 8) of one parent's children and the largest such, its box inside that
// span's box, and the output the same for 1, 2 and 8 workers.
func TestGroupCutProperties(t *testing.T) {
	for seed, n := range []int{1, 50, 3000, 20_000, 40_000} {
		for _, nleaf := range []int{2, 16, 100} {
			ks, pos, mass, grid := sortedCloud(n, int64(seed), true)
			tr := BuildStructure(ks, pos, mass, grid, nleaf)
			tr.ComputeProperties()
			for _, ngroup := range []int{1, 8, 64, 1_000_000} {
				t.Run(fmt.Sprintf("n%d/nleaf%d/ngroup%d", n, nleaf, ngroup), func(t *testing.T) {
					groups := tr.MakeGroups(ngroup)
					checkGroups(t, tr, ngroup, groups)
					for _, workers := range []int{2, 8} {
						if got := tr.MakeGroupsScratch(ngroup, workers, nil); !slices.Equal(got, groups) {
							t.Fatalf("w=%d: %d groups differ from the serial %d", workers, len(got), len(groups))
						}
					}
				})
			}
		}
	}
}

// TestGroupOccupancy is the floor under the cut's reason to exist: a cut that
// emits the first cell with N <= ngroup on every path fills 27% of NGroup on
// the Milky Way model (an octree cell just above 128 splits eight ways; the
// aligned-span cut fills 57%), and every group pays one traversal and one
// gather whatever it holds.
// MakeGroupsScratch sizes its result from this floor.
func TestGroupOccupancy(t *testing.T) {
	mw := ic.MilkyWay(ic.DefaultMilkyWay(), 16384, 1, 1)
	mwPos, mwMass := make([]vec.V3, len(mw)), make([]float64, len(mw))
	for i, p := range mw {
		mwPos[i], mwMass[i] = p.Pos, p.Mass
	}
	clPos, clMass := clusteredCloud(100_000, 1)
	for _, tc := range []struct {
		name string
		pos  []vec.V3
		mass []float64
	}{{"milkyway16k", mwPos, mwMass}, {"clustered100k", clPos, clMass}} {
		tr, _ := BuildFrom(tc.pos, tc.mass, DefaultNLeaf, 1)
		groups := tr.MakeGroups(DefaultNGroup)
		occ := float64(len(tc.pos)) / float64(len(groups)) / DefaultNGroup
		t.Logf("%s: %d groups, %.1f targets each, occupancy %.2f", tc.name, len(groups),
			float64(len(tc.pos))/float64(len(groups)), occ)
		if occ < minGroupOccupancy {
			t.Errorf("%s: mean N/NGroup = %.2f, want >= %v", tc.name, occ, minGroupOccupancy)
		}
	}
}
