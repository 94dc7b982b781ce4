package octree

import (
	"fmt"
	"testing"

	"bonsai/internal/keys"
	"bonsai/internal/vec"
)

// noCell marks an empty child slot in childTable's rows.
const noCell = int32(-1)

// nestedIn reports whether c is a proper descendant of p by level and
// particle range alone.
func nestedIn(c, p *Cell) bool {
	return c.Level > p.Level && c.Start >= p.Start && c.Start+c.N <= p.Start+p.N
}

// childTable returns, for every cell, the cell in each of its eight child
// slots. It never reads Skip: the parent of a cell is the nearest earlier
// cell it nests in by (Level, Start, N), and its slot is the Morton digit of
// its first particle at the parent's level. The oracles below walk the tree
// through this table, so they check Skip instead of trusting it.
func childTable(tr *Tree) [][8]int32 {
	kids := make([][8]int32, len(tr.Cells))
	var path []int32 // the cells the current one nests in, root first
	for j := range tr.Cells {
		kids[j] = [8]int32{noCell, noCell, noCell, noCell, noCell, noCell, noCell, noCell}
		c := &tr.Cells[j]
		for len(path) > 0 && !nestedIn(c, &tr.Cells[path[len(path)-1]]) {
			path = path[:len(path)-1]
		}
		if len(path) > 0 {
			p := path[len(path)-1]
			oct := tr.Keys[c.Start].Octant(int(tr.Cells[p].Level))
			if c.Level != tr.Cells[p].Level+1 || kids[p][oct] != noCell {
				panic(fmt.Sprintf("cell %d (level %d) is not a new child of cell %d (level %d, slot %d)",
					j, c.Level, p, tr.Cells[p].Level, oct))
			}
			kids[p][oct] = int32(j)
		} else if j > 0 {
			panic(fmt.Sprintf("cell %d nests in no earlier cell", j))
		}
		path = append(path, int32(j))
	}
	return kids
}

// TestSkipMatchesRangeNesting holds Cell.Skip — the only stored topology — to
// the structure (Level, Start, N) implies: the subtree of cell i is exactly
// the run of later cells nested in it, and the Skip chain from i+1 visits
// i's children in ascending octant order.
func TestSkipMatchesRangeNesting(t *testing.T) {
	check := func(t *testing.T, ks []keys.Key, pos []vec.V3, mass []float64, grid keys.Grid) {
		for _, nleaf := range []int{2, 16, 100} {
			tr := BuildStructure(ks, pos, mass, grid, nleaf)
			kids := childTable(tr)
			for i := range tr.Cells {
				c := &tr.Cells[i]
				end := i + 1
				for end < len(tr.Cells) && nestedIn(&tr.Cells[end], c) {
					end++
				}
				if int(c.Skip) != end {
					t.Fatalf("nleaf=%d: cell %d: Skip %d, nested cells end at %d", nleaf, i, c.Skip, end)
				}
				if c.Leaf != (end == i+1) {
					t.Fatalf("nleaf=%d: cell %d: Leaf=%v with %d cells below it", nleaf, i, c.Leaf, end-i-1)
				}
				ch := int32(i) + 1
				for _, want := range kids[i] {
					if want == noCell {
						continue
					}
					if ch != want {
						t.Fatalf("nleaf=%d: cell %d: Skip chain at %d, next child by nesting is %d", nleaf, i, ch, want)
					}
					ch = tr.Cells[ch].Skip
				}
				if ch != c.Skip && !c.Leaf {
					t.Fatalf("nleaf=%d: cell %d: Skip chain ends at %d, Skip is %d", nleaf, i, ch, c.Skip)
				}
			}
		}
	}
	for _, clustered := range []bool{false, true} {
		t.Run(fmt.Sprintf("clustered=%v", clustered), func(t *testing.T) {
			ks, pos, mass, grid := sortedCloud(20_000, 5, clustered)
			check(t, ks, pos, mass, grid)
		})
	}
	t.Run("allKeysEqual", func(t *testing.T) {
		ks, pos, mass, grid := equalKeysCloud(5_000)
		check(t, ks, pos, mass, grid)
	})
}
