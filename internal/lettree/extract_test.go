package lettree

import (
	"fmt"
	"math"
	"testing"

	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// recursiveExtract is the LET construction extract replaced: a recursive
// descent appending to storage it grows as it goes, each cell's Skip written
// once its subtree is done. It is the oracle the forward scan is compared
// against, cell for cell and particle for particle.
func recursiveExtract(t *octree.Tree, localBox vec.Box, expand func(c *octree.Cell) bool) *LET {
	out := &LET{Box: localBox}
	if len(t.Cells) == 0 {
		return out
	}
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

// requireSameLET asserts got equals the oracle's LET field for field, and
// that got's storage is exactly its size.
func requireSameLET(t *testing.T, got, want *LET, label string) {
	t.Helper()
	if got.Box != want.Box {
		t.Fatalf("%s: box %v, oracle %v", label, got.Box, want.Box)
	}
	if len(got.Cells) != len(want.Cells) || len(got.Pos) != len(want.Pos) || len(got.Mass) != len(want.Mass) {
		t.Fatalf("%s: %d cells, %d particles; oracle %d, %d", label, len(got.Cells), len(got.Pos), len(want.Cells), len(want.Pos))
	}
	for i := range want.Cells {
		if got.Cells[i] != want.Cells[i] {
			t.Fatalf("%s: cell %d = %+v, oracle %+v", label, i, got.Cells[i], want.Cells[i])
		}
	}
	for i := range want.Pos {
		if got.Pos[i] != want.Pos[i] || got.Mass[i] != want.Mass[i] {
			t.Fatalf("%s: particle %d differs from the oracle's", label, i)
		}
	}
	if cap(got.Cells) != len(got.Cells) || cap(got.Pos) != len(got.Pos) || cap(got.Mass) != len(got.Mass) {
		t.Fatalf("%s: capacities %d/%d/%d for lengths %d/%d/%d", label,
			cap(got.Cells), cap(got.Pos), cap(got.Mass), len(got.Cells), len(got.Pos), len(got.Mass))
	}
}

// requireSameRecords asserts two walk-record slices are equal bit for bit.
func requireSameRecords(t *testing.T, got, want []octree.ViewCell, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Skip != w.Skip || g.Start != w.Start || g.N != w.N || g.Kind != w.Kind ||
			math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
			math.Float64bits(g.Z) != math.Float64bits(w.Z) || math.Float64bits(g.Open2) != math.Float64bits(w.Open2) {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// lazyRecords are the records fillView builds for θ from the LET's cells.
func lazyRecords(l *LET, theta float64) []octree.ViewCell {
	cells := make([]octree.ViewCell, len(l.Cells))
	l.fillView(cells, theta)
	return cells
}

func TestExtractMatchesRecursiveOracle(t *testing.T) {
	pos, mass := blob(4000, vec.V3{}, 1, 41)
	trees := map[string]*octree.Tree{}
	for _, nleaf := range []int{1, 16, 32} {
		trees[fmt.Sprintf("nleaf%d", nleaf)], _ = octree.BuildFrom(pos, mass, nleaf, 1)
	}
	trees["one-cell"], _ = octree.BuildFrom(pos[:5], mass[:5], 16, 1)
	trees["empty"], _ = octree.BuildFrom(nil, nil, 16, 1)
	if n := len(trees["one-cell"].Cells); n != 1 {
		t.Fatalf("one-cell tree has %d cells", n)
	}
	lb := boxOf(pos)
	unit := vec.V3{X: 1, Y: 1, Z: 1}
	boxes := map[string]vec.Box{
		"near":        {Min: vec.V3{X: 2, Y: -1, Z: -1}, Max: vec.V3{X: 4, Y: 1, Z: 1}},
		"far":         {Min: vec.V3{X: 300, Y: -1, Z: -1}, Max: vec.V3{X: 302, Y: 1, Z: 1}},
		"overlapping": {Min: unit.Scale(-0.5), Max: unit.Scale(0.5)},
		"empty":       vec.EmptyBox(),
	}
	for name, tr := range trees {
		for depth := 0; depth <= 6; depth++ {
			d := depth
			if d == 0 {
				d = DefaultBoundaryDepth
			}
			label := fmt.Sprintf("%s BoundaryTree depth %d", name, depth)
			bt := BoundaryTree(tr, depth, lb)
			requireSameLET(t, bt, recursiveExtract(tr, lb, func(c *octree.Cell) bool {
				return c.Leaf || int(c.Level) < d
			}), label)
			requireSameRecords(t, bt.WalkView(0.5), lazyRecords(bt, 0.5), label)
		}
		for bname, box := range boxes {
			for _, theta := range []float64{0.3, 0.5, 0.65, 0.8} {
				label := fmt.Sprintf("%s BuildFor %s θ=%v", name, bname, theta)
				let := BuildFor(tr, box, theta, lb)
				requireSameLET(t, let, recursiveExtract(tr, lb, func(c *octree.Cell) bool {
					return octree.MACOpen(box, c, theta)
				}), label)
				if let.Empty() {
					continue
				}
				// The records BuildFor wrote are the lazy view's, bit for
				// bit; asking for another θ rebuilds without touching them.
				eager := let.WalkView(theta)
				requireSameRecords(t, eager, lazyRecords(let, theta), label+" eager records")
				saved := append([]octree.ViewCell(nil), eager...)
				requireSameRecords(t, let.WalkView(theta+0.1), lazyRecords(let, theta+0.1), label+" other θ")
				requireSameRecords(t, eager, saved, label+" eager records after another θ")
				requireSameRecords(t, let.WalkView(theta), saved, label+" θ again")
			}
		}
	}
}

// TestBuildForAllocations: a LET is built in a constant number of
// allocations whatever its size — the LET, its cells, particle positions and
// masses, and its walk records.
func TestBuildForAllocations(t *testing.T) {
	pos, mass := blob(4000, vec.V3{}, 1, 42)
	tr, _ := octree.BuildFrom(pos, mass, 16, 1)
	lb := boxOf(pos)
	for _, box := range []vec.Box{
		{Min: vec.V3{X: 1.5, Y: -1, Z: -1}, Max: vec.V3{X: 3.5, Y: 1, Z: 1}},
		{Min: vec.V3{X: 300, Y: -1, Z: -1}, Max: vec.V3{X: 302, Y: 1, Z: 1}},
	} {
		if n := testing.AllocsPerRun(20, func() { BuildFor(tr, box, 0.5, lb) }); n > 5 {
			t.Errorf("BuildFor for %v: %v allocations per LET, want at most 5", box, n)
		}
	}
}
