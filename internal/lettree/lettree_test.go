package lettree

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"bonsai/internal/grav"
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

func TestBoundaryTreePreservesMoments(t *testing.T) {
	pos, mass := blob(3000, vec.V3{}, 1, 1)
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	bt := BoundaryTree(tr, 3, boxOf(pos))
	if math.Abs(bt.TotalMass()-tr.TotalMass()) > 1e-9*tr.TotalMass() {
		t.Fatalf("boundary mass %v != %v", bt.TotalMass(), tr.TotalMass())
	}
	root := bt.Cells[0]
	if root.MP.COM.Sub(tr.Cells[0].MP.COM).Norm() > 1e-12 {
		t.Fatal("root COM mismatch")
	}
	// Much smaller than the full tree.
	if len(bt.Cells) >= len(tr.Cells) {
		t.Fatalf("boundary tree not truncated: %d vs %d cells", len(bt.Cells), len(tr.Cells))
	}
}

func TestBoundaryTreeDepthControlsSize(t *testing.T) {
	pos, mass := blob(20000, vec.V3{}, 1, 2)
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	prev := 0
	for _, d := range []int{1, 2, 4, 6} {
		bt := BoundaryTree(tr, d, boxOf(pos))
		if len(bt.Cells) < prev {
			t.Fatalf("depth %d produced fewer cells (%d) than shallower tree (%d)", d, len(bt.Cells), prev)
		}
		prev = len(bt.Cells)
	}
}

func TestBuildForDistantDomainIsTiny(t *testing.T) {
	pos, mass := blob(5000, vec.V3{}, 1, 3)
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	far := vec.Box{Min: vec.V3{X: 1000}, Max: vec.V3{X: 1001, Y: 1, Z: 1}}
	let := BuildFor(tr, far, 0.5, boxOf(pos))
	if len(let.Cells) != 1 {
		t.Fatalf("distant LET has %d cells, want 1 (closed root)", len(let.Cells))
	}
	if len(let.Pos) != 0 {
		t.Fatalf("distant LET carries %d particles", len(let.Pos))
	}
}

func TestBuildForOverlappingDomainCarriesParticles(t *testing.T) {
	pos, mass := blob(5000, vec.V3{}, 1, 4)
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	near := vec.Box{Min: vec.V3{X: -0.5, Y: -0.5, Z: -0.5}, Max: vec.V3{X: 0.5, Y: 0.5, Z: 0.5}}
	let := BuildFor(tr, near, 0.5, boxOf(pos))
	if len(let.Pos) == 0 {
		t.Fatal("overlapping LET carries no particles")
	}
	if math.Abs(let.TotalMass()-tr.TotalMass()) > 1e-9*tr.TotalMass() {
		t.Fatalf("LET mass %v != %v", let.TotalMass(), tr.TotalMass())
	}
}

func TestLETSizeShrinksWithDistance(t *testing.T) {
	pos, mass := blob(20000, vec.V3{}, 1, 5)
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	lb := boxOf(pos)
	prevBytes := math.MaxInt64
	for _, d := range []float64{3, 10, 40, 200} {
		box := vec.Box{
			Min: vec.V3{X: d - 1, Y: -1, Z: -1},
			Max: vec.V3{X: d + 1, Y: 1, Z: 1},
		}
		let := BuildFor(tr, box, 0.4, lb)
		if let.WireBytes() > prevBytes {
			t.Fatalf("LET grew with distance at d=%v", d)
		}
		prevBytes = let.WireBytes()
	}
}

// letForces walks a LET for all targets as a single set of groups.
func letForces(l *LET, tpos []vec.V3, theta, eps2 float64) ([]vec.V3, []float64, int64, grav.Stats) {
	groups := octree.GroupsOf(tpos, 64)
	acc := make([]vec.V3, len(tpos))
	pot := make([]float64, len(tpos))
	var st grav.Stats
	forced := Walk(l, groups, tpos, theta, eps2, acc, pot, 4, &st)
	return acc, pot, forced, st
}

func TestLETForcesMatchFullTreeWalk(t *testing.T) {
	// Two separated blobs: source tree over blob B, targets are blob A.
	// Walking the LET built for A's box must give the same forces as
	// walking B's full tree directly.
	tposA, _ := blob(1000, vec.V3{X: -3}, 0.5, 6)
	posB, massB := blob(4000, vec.V3{X: 3}, 0.8, 7)
	trB, _ := octree.BuildFrom(posB, massB, 16, 2)
	boxA := boxOf(tposA)

	theta, eps2 := 0.5, 1e-4
	let := BuildFor(trB, boxA, theta, boxOf(posB))
	gotAcc, gotPot, forced, st := letForces(let, tposA, theta, eps2)
	if forced != 0 {
		t.Fatalf("full LET walk forced %d accepts", forced)
	}
	if st.PP == 0 {
		t.Fatal("no p-p interactions recorded")
	}

	groups := octree.GroupsOf(tposA, 64)
	wantAcc := make([]vec.V3, len(tposA))
	wantPot := make([]float64, len(tposA))
	trB.Walk(groups, tposA, theta, eps2, wantAcc, wantPot, 4, nil)

	for i := range gotAcc {
		if gotAcc[i].Sub(wantAcc[i]).Norm() > 1e-12*(1+wantAcc[i].Norm()) {
			t.Fatalf("acc[%d]: %v != %v", i, gotAcc[i], wantAcc[i])
		}
		if math.Abs(gotPot[i]-wantPot[i]) > 1e-12*(1+math.Abs(wantPot[i])) {
			t.Fatalf("pot[%d]: %v != %v", i, gotPot[i], wantPot[i])
		}
	}
}

func TestSufficiencyFarVsNear(t *testing.T) {
	pos, mass := blob(10000, vec.V3{}, 1, 8)
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	bt := BoundaryTree(tr, 3, boxOf(pos))

	far := vec.Box{Min: vec.V3{X: 500, Y: -1, Z: -1}, Max: vec.V3{X: 502, Y: 1, Z: 1}}
	if !Sufficient(bt, far, 0.4) {
		t.Error("boundary tree should suffice for a distant domain")
	}
	near := vec.Box{Min: vec.V3{X: 0.5, Y: -1, Z: -1}, Max: vec.V3{X: 2.5, Y: 1, Z: 1}}
	if Sufficient(bt, near, 0.4) {
		t.Error("shallow boundary tree should NOT suffice for an adjacent domain")
	}
}

func TestSufficiencyImpliesNoForcedAccepts(t *testing.T) {
	// The protocol invariant: whenever Sufficient() approves a boundary tree
	// for a target box, walking it for targets inside that box must never be
	// forced to accept a pruned cell.
	rng := rand.New(rand.NewSource(9))
	pos, mass := blob(8000, vec.V3{}, 1, 10)
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	lb := boxOf(pos)
	for trial := 0; trial < 30; trial++ {
		depth := 1 + rng.Intn(5)
		theta := 0.2 + 0.6*rng.Float64()
		bt := BoundaryTree(tr, depth, lb)
		// Random target box at random distance (sometimes overlapping).
		d := rng.Float64() * 30
		ctr := vec.V3{X: d, Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		tb := vec.Box{Min: ctr.Sub(vec.V3{X: 1, Y: 1, Z: 1}), Max: ctr.Add(vec.V3{X: 1, Y: 1, Z: 1})}

		suff := Sufficient(bt, tb, theta)
		// Targets strictly inside tb.
		tpos := make([]vec.V3, 200)
		for i := range tpos {
			tpos[i] = ctr.Add(vec.V3{
				X: (rng.Float64()*2 - 1) * 0.99,
				Y: (rng.Float64()*2 - 1) * 0.99,
				Z: (rng.Float64()*2 - 1) * 0.99,
			})
		}
		_, _, forced, _ := letForces(bt, tpos, theta, 1e-4)
		if suff && forced != 0 {
			t.Fatalf("trial %d: Sufficient=true but %d forced accepts (depth=%d theta=%v d=%v)",
				trial, forced, depth, theta, d)
		}
	}
}

func TestBoundaryUsedWhenSufficientGivesAccurateForces(t *testing.T) {
	// When the boundary tree passes the sufficiency test, forces computed
	// from it must match the full-tree walk exactly (multipoles identical,
	// traversal closes at the same cells or above).
	posB, massB := blob(6000, vec.V3{X: 8}, 0.7, 11)
	trB, _ := octree.BuildFrom(posB, massB, 16, 2)
	bt := BoundaryTree(trB, 4, boxOf(posB))

	tposA, _ := blob(500, vec.V3{X: -8}, 0.5, 12)
	boxA := boxOf(tposA)
	theta := 0.4
	if !Sufficient(bt, boxA, theta) {
		t.Skip("geometry unexpectedly near; sufficiency not met")
	}
	gotAcc, _, forced, _ := letForces(bt, tposA, theta, 1e-4)
	if forced != 0 {
		t.Fatalf("forced accepts: %d", forced)
	}
	groups := octree.GroupsOf(tposA, 64)
	wantAcc := make([]vec.V3, len(tposA))
	wantPot := make([]float64, len(tposA))
	trB.Walk(groups, tposA, theta, 1e-4, wantAcc, wantPot, 2, nil)
	for i := range gotAcc {
		if gotAcc[i].Sub(wantAcc[i]).Norm() > 1e-12*(1+wantAcc[i].Norm()) {
			t.Fatalf("acc[%d] mismatch: %v vs %v", i, gotAcc[i], wantAcc[i])
		}
	}
}

func TestWalkParallelDeterminism(t *testing.T) {
	posB, massB := blob(5000, vec.V3{X: 2}, 1, 13)
	trB, _ := octree.BuildFrom(posB, massB, 16, 2)
	tpos, _ := blob(1500, vec.V3{X: -2}, 1, 14)
	let := BuildFor(trB, boxOf(tpos), 0.5, boxOf(posB))
	groups := octree.GroupsOf(tpos, 64)

	ref := make([]vec.V3, len(tpos))
	refPot := make([]float64, len(tpos))
	Walk(let, groups, tpos, 0.5, 1e-4, ref, refPot, 1, nil)
	for _, w := range []int{2, 6} {
		acc := make([]vec.V3, len(tpos))
		pot := make([]float64, len(tpos))
		Walk(let, groups, tpos, 0.5, 1e-4, acc, pot, w, nil)
		for i := range acc {
			if acc[i] != ref[i] || pot[i] != refPot[i] {
				t.Fatalf("workers=%d nondeterministic at %d", w, i)
			}
		}
	}
}

func TestEmptyLET(t *testing.T) {
	var l LET
	if !l.Empty() || l.TotalMass() != 0 {
		t.Fatal("zero LET not empty")
	}
	if !Sufficient(&l, vec.Box{}, 0.5) {
		t.Fatal("empty LET should be vacuously sufficient")
	}
	if f := Walk(&l, nil, nil, 0.5, 1e-4, nil, nil, 2, nil); f != 0 {
		t.Fatal("walking empty LET")
	}
}

func TestWireBytesGrowsWithContent(t *testing.T) {
	pos, mass := blob(3000, vec.V3{}, 1, 15)
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	small := BoundaryTree(tr, 1, boxOf(pos))
	big := BoundaryTree(tr, 5, boxOf(pos))
	if small.WireBytes() >= big.WireBytes() {
		t.Fatalf("wire bytes not monotone: %d vs %d", small.WireBytes(), big.WireBytes())
	}
}

func BenchmarkBoundaryTree(b *testing.B) {
	pos, mass := blob(100_000, vec.V3{}, 1, 31)
	tr, _ := octree.BuildFrom(pos, mass, 16, 0)
	lb := boxOf(pos)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BoundaryTree(tr, 4, lb)
	}
}

func BenchmarkBuildForNearDomain(b *testing.B) {
	pos, mass := blob(100_000, vec.V3{}, 1, 32)
	tr, _ := octree.BuildFrom(pos, mass, 16, 0)
	lb := boxOf(pos)
	remote := vec.Box{Min: vec.V3{X: 2, Y: -1, Z: -1}, Max: vec.V3{X: 4, Y: 1, Z: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildFor(tr, remote, 0.4, lb)
	}
}

func BenchmarkMarshalUnmarshal(b *testing.B) {
	pos, mass := blob(50_000, vec.V3{}, 1, 33)
	tr, _ := octree.BuildFrom(pos, mass, 16, 0)
	lb := boxOf(pos)
	let := BuildFor(tr, vec.Box{Min: vec.V3{X: 3, Y: -1, Z: -1}, Max: vec.V3{X: 5, Y: 1, Z: 1}}, 0.4, lb)
	b.SetBytes(int64(let.WireBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := let.Marshal()
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBuildForConcurrent(t *testing.T) {
	// The gravity pipeline builds LETs for all destinations from a worker
	// pool while the local walk reads the same tree. BuildFor must therefore
	// be safe for concurrent use on one tree and yield the same LETs it
	// yields serially.
	pos, mass := blob(8000, vec.V3{}, 1, 9)
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	lb := boxOf(pos)
	boxes := make([]vec.Box, 16)
	for i := range boxes {
		d := 1.5 + 3*float64(i)
		boxes[i] = vec.Box{
			Min: vec.V3{X: d - 1, Y: -1, Z: -1},
			Max: vec.V3{X: d + 1, Y: 1, Z: 1},
		}
	}
	serial := make([]*LET, len(boxes))
	for i, b := range boxes {
		serial[i] = BuildFor(tr, b, 0.4, lb)
	}

	conc := make([]*LET, len(boxes))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(boxes); i += 4 {
				conc[i] = BuildFor(tr, boxes[i], 0.4, lb)
			}
		}(w)
	}
	wg.Wait()

	for i := range boxes {
		s, c := serial[i], conc[i]
		if len(s.Cells) != len(c.Cells) || len(s.Pos) != len(c.Pos) {
			t.Fatalf("box %d: concurrent LET shape (%d cells, %d parts) != serial (%d, %d)",
				i, len(c.Cells), len(c.Pos), len(s.Cells), len(s.Pos))
		}
		for j := range s.Cells {
			if s.Cells[j] != c.Cells[j] {
				t.Fatalf("box %d: cell %d differs", i, j)
			}
		}
		for j := range s.Pos {
			if s.Pos[j] != c.Pos[j] || s.Mass[j] != c.Mass[j] {
				t.Fatalf("box %d: particle %d differs", i, j)
			}
		}
	}
}
