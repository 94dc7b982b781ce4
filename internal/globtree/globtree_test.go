package globtree

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bonsai/internal/keys"
	"bonsai/internal/lettree"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// blob returns n particles in a Gaussian ball at center with scale s.
func blob(n int, center vec.V3, s float64, seed int64) ([]vec.V3, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = center.Add(vec.V3{
			X: s * rng.NormFloat64(),
			Y: s * rng.NormFloat64(),
			Z: s * rng.NormFloat64(),
		})
		mass[i] = 0.5 + rng.Float64()
	}
	return pos, mass
}

func boxOf(pos []vec.V3) vec.Box {
	b := vec.EmptyBox()
	for _, p := range pos {
		b = b.Extend(p)
	}
	return b
}

// rankContribs builds per-rank contributions from well-separated blobs.
func rankContribs(t *testing.T, ranks, nPer, levels int) ([]*Contribution, [][]vec.V3, [][]float64) {
	t.Helper()
	contribs := make([]*Contribution, ranks)
	allPos := make([][]vec.V3, ranks)
	allMass := make([][]float64, ranks)
	for r := 0; r < ranks; r++ {
		c := vec.V3{X: float64(r%4) * 10, Y: float64(r/4) * 10}
		pos, mass := blob(nPer, c, 0.6, int64(100+r))
		tr, _ := octree.BuildFrom(pos, mass, 16, 2)
		contribs[r] = Extract(tr, levels, boxOf(pos))
		allPos[r], allMass[r] = pos, mass
	}
	return contribs, allPos, allMass
}

func TestMergeConservesTotals(t *testing.T) {
	const ranks, nPer, levels = 6, 800, 3
	contribs, _, allMass := rankContribs(t, ranks, nPer, levels)
	g := Merge(contribs, levels)

	if got, want := g.TotalN(), int64(ranks*nPer); got != want {
		t.Fatalf("root occupancy %d, want %d", got, want)
	}
	var wantMass float64
	for _, m := range allMass {
		for _, v := range m {
			wantMass += v
		}
	}
	if root := g.Cells[0]; math.Abs(root.Mass-wantMass) > 1e-9*wantMass {
		t.Fatalf("root mass %v, want %v", root.Mass, wantMass)
	}
	if g.OccupiedCells() < ranks {
		t.Fatalf("only %d occupied cells at level %d for %d well-separated ranks",
			g.OccupiedCells(), levels, ranks)
	}
}

func TestMergeMatchesHistogramSums(t *testing.T) {
	const ranks, nPer, levels = 4, 500, 2
	contribs, _, _ := rankContribs(t, ranks, nPer, levels)
	g := Merge(contribs, levels)

	// Every lattice cell's merged occupancy is the elementwise sum of the
	// per-rank histograms, and the owner holds the plurality.
	for ci := range g.Cells {
		var sum, best int64
		owner := int32(-1)
		for r, c := range contribs {
			n := c.Counts[ci]
			sum += n
			if n > best {
				best, owner = n, int32(r)
			}
		}
		if g.Cells[ci].N != sum {
			t.Fatalf("cell %d: merged N %d, want %d", ci, g.Cells[ci].N, sum)
		}
		if g.Cells[ci].Owner != owner {
			t.Fatalf("cell %d: owner %d, want %d", ci, g.Cells[ci].Owner, owner)
		}
	}
}

func TestMergeDeterministic(t *testing.T) {
	const ranks, nPer, levels = 5, 600, 3
	contribs, _, _ := rankContribs(t, ranks, nPer, levels)
	a := Merge(contribs, levels)
	b := Merge(contribs, levels)
	if !reflect.DeepEqual(a.Cells, b.Cells) {
		t.Fatal("two merges of the same contributions differ")
	}
}

func TestOwnerOfKey(t *testing.T) {
	const levels = 3
	// Two far-apart blobs: every key inside a blob's region resolves to its rank.
	posA, massA := blob(700, vec.V3{X: -8}, 0.5, 1)
	posB, massB := blob(900, vec.V3{X: 8}, 0.5, 2)
	trA, _ := octree.BuildFrom(posA, massA, 16, 2)
	trB, _ := octree.BuildFrom(posB, massB, 16, 2)

	// The lattice is meaningful only when both ranks key against the same
	// grid, as the sim layer does with its global bounding box.
	global := boxOf(append(append([]vec.V3{}, posA...), posB...))
	grid := keys.NewGrid(global)
	hist := func(pos []vec.V3) []int64 {
		counts := make([]int64, NumCells(levels))
		for _, p := range pos {
			k := grid.MortonOf(p)
			for l := 0; l <= levels; l++ {
				counts[LevelOffset(l)+int(k.PrefixPath(l))]++
			}
		}
		return counts
	}
	contribs := []*Contribution{
		{Tree: lettree.BoundaryTree(trA, levels, boxOf(posA)), Counts: hist(posA)},
		{Tree: lettree.BoundaryTree(trB, levels, boxOf(posB)), Counts: hist(posB)},
	}
	g := Merge(contribs, levels)

	for i, p := range posA[:50] {
		if own := g.OwnerOfKey(grid.MortonOf(p)); own != 0 {
			t.Fatalf("particle %d of rank 0 resolved to owner %d", i, own)
		}
	}
	for i, p := range posB[:50] {
		if own := g.OwnerOfKey(grid.MortonOf(p)); own != 1 {
			t.Fatalf("particle %d of rank 1 resolved to owner %d", i, own)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	const levels = 3
	pos, mass := blob(1200, vec.V3{X: 2, Y: -1}, 0.7, 9)
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	c := Extract(tr, levels, boxOf(pos))

	buf := c.Marshal()
	if len(buf) != c.WireBytes() {
		t.Fatalf("Marshal produced %d bytes, WireBytes says %d", len(buf), c.WireBytes())
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counts, c.Counts) {
		t.Fatal("counts changed across the wire")
	}
	if len(got.Tree.Cells) != len(c.Tree.Cells) || len(got.Tree.Pos) != len(c.Tree.Pos) {
		t.Fatalf("tree shape changed: %d/%d cells, %d/%d parts",
			len(got.Tree.Cells), len(c.Tree.Cells), len(got.Tree.Pos), len(c.Tree.Pos))
	}
	if got.Tree.Box != c.Tree.Box {
		t.Fatal("advertised box changed across the wire")
	}
	if math.Abs(got.Tree.TotalMass()-c.Tree.TotalMass()) > 0 {
		t.Fatal("total mass changed across the wire")
	}

	// The sparse encoding must beat the dense lattice for a single blob,
	// which populates a thin column of octants per level.
	dense := 12 + 8*len(c.Counts) + c.Tree.WireBytes()
	if c.WireBytes() >= dense {
		t.Fatalf("sparse encoding (%d bytes) not smaller than dense (%d)", c.WireBytes(), dense)
	}
}

func TestWireRejectsCorrupt(t *testing.T) {
	pos, mass := blob(300, vec.V3{}, 0.5, 4)
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	buf := Extract(tr, 2, boxOf(pos)).Marshal()

	if _, err := Unmarshal(buf[:6]); err == nil {
		t.Fatal("short buffer accepted")
	}
	bad := append([]byte{}, buf...)
	bad[0] ^= 0xff
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte{}, buf...)
	bad[8], bad[9] = 0xff, 0xff // absurd pair count
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("truncated pair list accepted")
	}
}

// TestCoarsePrefixWalkEquivalence is the invariant the whole exchange-pruning
// design rests on: when the coarse tree (depth K) is Sufficient for a target
// box, walking it produces bitwise the accelerations of walking the deeper
// boundary tree — the MAC never wants to open below the cut, so the truncated
// and full prefixes traverse identical cells.
func TestCoarsePrefixWalkEquivalence(t *testing.T) {
	const coarseK, boundaryD = 2, 5
	tpos, _ := blob(800, vec.V3{X: -30}, 0.8, 11)
	posB, massB := blob(5000, vec.V3{X: 30}, 1.0, 12)
	trB, _ := octree.BuildFrom(posB, massB, 16, 2)
	srcBox := boxOf(posB)
	targetBox := boxOf(tpos)

	coarse := Extract(trB, coarseK, srcBox).Tree
	boundary := lettree.BoundaryTree(trB, boundaryD, srcBox)
	theta := 0.4
	if !lettree.Sufficient(coarse, targetBox, theta) {
		t.Fatal("test geometry broken: coarse tree should satisfy the MAC at this separation")
	}
	// Monotonicity: a sufficient shallow prefix implies a sufficient deep one.
	if !lettree.Sufficient(boundary, targetBox, theta) {
		t.Fatal("boundary tree insufficient where the coarse prefix was sufficient")
	}

	groups := octree.GroupsOf(tpos, 64)
	eps2 := 1e-4
	accC := make([]vec.V3, len(tpos))
	potC := make([]float64, len(tpos))
	accB := make([]vec.V3, len(tpos))
	potB := make([]float64, len(tpos))
	if f := lettree.Walk(coarse, groups, tpos, theta, eps2, accC, potC, 1, nil); f != 0 {
		t.Fatalf("coarse walk forced %d accepts", f)
	}
	if f := lettree.Walk(boundary, groups, tpos, theta, eps2, accB, potB, 1, nil); f != 0 {
		t.Fatalf("boundary walk forced %d accepts", f)
	}
	for i := range accC {
		if accC[i] != accB[i] || potC[i] != potB[i] {
			t.Fatalf("target %d: coarse walk %v/%v != boundary walk %v/%v (must be bitwise)",
				i, accC[i], potC[i], accB[i], potB[i])
		}
	}
}
