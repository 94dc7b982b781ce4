package octree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bonsai/internal/grav"
	"bonsai/internal/ic"
	"bonsai/internal/vec"
)

// randomCloud returns n particles in a unit cube with random masses.
func randomCloud(n int, seed int64) ([]vec.V3, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		mass[i] = 0.5 + rng.Float64()
	}
	return pos, mass
}

// clusteredCloud returns a strongly clustered distribution (several Gaussian
// blobs), exercising deep unbalanced trees.
func clusteredCloud(n int, seed int64) ([]vec.V3, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	centers := []vec.V3{{X: 0.2, Y: 0.2, Z: 0.2}, {X: 0.8, Y: 0.7, Z: 0.3}, {X: 0.5, Y: 0.9, Z: 0.8}}
	for i := range pos {
		c := centers[rng.Intn(len(centers))]
		pos[i] = c.Add(vec.V3{
			X: 0.03 * rng.NormFloat64(),
			Y: 0.03 * rng.NormFloat64(),
			Z: 0.03 * rng.NormFloat64(),
		})
		mass[i] = 1
	}
	return pos, mass
}

func TestBuildLeafInvariants(t *testing.T) {
	pos, mass := randomCloud(5000, 1)
	tr, _ := BuildFrom(pos, mass, 16, 4)

	// Every particle is in exactly one leaf.
	covered := make([]int, len(pos))
	for i := range tr.Cells {
		c := &tr.Cells[i]
		if !c.Leaf {
			continue
		}
		if c.N > 16 && c.Level < 21 {
			t.Errorf("leaf with %d > NLEAF particles at level %d", c.N, c.Level)
		}
		for j := c.Start; j < c.Start+c.N; j++ {
			covered[j]++
		}
	}
	for i, k := range covered {
		if k != 1 {
			t.Fatalf("particle %d covered by %d leaves", i, k)
		}
	}
}

func TestBuildChildRangesPartitionParent(t *testing.T) {
	pos, mass := clusteredCloud(3000, 2)
	tr, _ := BuildFrom(pos, mass, 16, 2)
	kids := childTable(tr)
	for i := range tr.Cells {
		c := &tr.Cells[i]
		if c.Leaf {
			continue
		}
		sum := int32(0)
		prevEnd := c.Start
		for _, ch := range kids[i] {
			if ch == noCell {
				continue
			}
			cc := &tr.Cells[ch]
			if cc.Start != prevEnd {
				t.Fatalf("child ranges not contiguous: expected start %d, got %d", prevEnd, cc.Start)
			}
			if cc.Level != c.Level+1 {
				t.Fatalf("child level %d under parent level %d", cc.Level, c.Level)
			}
			prevEnd = cc.Start + cc.N
			sum += cc.N
		}
		if sum != c.N {
			t.Fatalf("children cover %d of parent's %d particles", sum, c.N)
		}
	}
}

func TestCellBoxesContainTheirParticles(t *testing.T) {
	pos, mass := randomCloud(2000, 3)
	tr, _ := BuildFrom(pos, mass, 16, 2)
	for i := range tr.Cells {
		c := &tr.Cells[i]
		for j := c.Start; j < c.Start+c.N; j++ {
			if !c.Box.Contains(tr.Pos[j]) {
				t.Fatalf("cell %d box %+v misses particle %v", i, c.Box, tr.Pos[j])
			}
		}
	}
}

func TestMomentsMatchBruteForce(t *testing.T) {
	pos, mass := clusteredCloud(1000, 4)
	tr, _ := BuildFrom(pos, mass, 8, 2)
	for i := range tr.Cells {
		c := &tr.Cells[i]
		var m float64
		var com vec.V3
		for j := c.Start; j < c.Start+c.N; j++ {
			m += tr.Mass[j]
			com = com.Add(tr.Pos[j].Scale(tr.Mass[j]))
		}
		com = com.Scale(1 / m)
		var q vec.Sym3
		for j := c.Start; j < c.Start+c.N; j++ {
			d := tr.Pos[j].Sub(com)
			q = q.Add(vec.Outer(tr.Mass[j], d))
		}
		if math.Abs(c.MP.M-m) > 1e-9*m {
			t.Fatalf("cell %d: mass %v != %v", i, c.MP.M, m)
		}
		if c.MP.COM.Sub(com).Norm() > 1e-9 {
			t.Fatalf("cell %d: com %v != %v", i, c.MP.COM, com)
		}
		for _, d := range []float64{
			c.MP.Quad.XX - q.XX, c.MP.Quad.YY - q.YY, c.MP.Quad.ZZ - q.ZZ,
			c.MP.Quad.XY - q.XY, c.MP.Quad.XZ - q.XZ, c.MP.Quad.YZ - q.YZ,
		} {
			if math.Abs(d) > 1e-8*(1+math.Abs(q.Trace())) {
				t.Fatalf("cell %d quadrupole mismatch", i)
			}
		}
	}
}

func TestTotalMassConserved(t *testing.T) {
	pos, mass := randomCloud(777, 5)
	var want float64
	for _, m := range mass {
		want += m
	}
	tr, _ := BuildFrom(pos, mass, 16, 2)
	if math.Abs(tr.TotalMass()-want) > 1e-9*want {
		t.Fatalf("total mass %v, want %v", tr.TotalMass(), want)
	}
}

func TestGroupsCoverAllParticlesOnce(t *testing.T) {
	pos, mass := clusteredCloud(4000, 6)
	tr, _ := BuildFrom(pos, mass, 16, 2)
	groups := tr.MakeGroups(64)
	covered := make([]int, len(pos))
	for _, g := range groups {
		if g.N > 64 && g.N > int32(tr.NLeaf) {
			// groups may exceed ngroup only when a single max-depth leaf does
			t.Errorf("group of size %d exceeds ngroup", g.N)
		}
		for i := g.Start; i < g.Start+g.N; i++ {
			covered[i]++
			if !g.Box.Contains(tr.Pos[i]) {
				t.Fatalf("group box misses its particle")
			}
		}
	}
	for i, k := range covered {
		if k != 1 {
			t.Fatalf("particle %d in %d groups", i, k)
		}
	}
}

func TestMakeGroupsEdgeCases(t *testing.T) {
	// Empty tree: no groups, and walking the (empty) group set is a no-op.
	empty, _ := BuildFrom(nil, nil, 16, 2)
	if g := empty.MakeGroups(64); len(g) != 0 {
		t.Fatalf("empty tree produced %d groups", len(g))
	}

	// n < ngroup: the root itself is the single group, covering everything.
	pos, mass := randomCloud(17, 21)
	tr, _ := BuildFrom(pos, mass, 16, 2)
	groups := tr.MakeGroups(1000)
	if len(groups) != 1 || groups[0].Start != 0 || int(groups[0].N) != len(pos) {
		t.Fatalf("n<ngroup: groups = %+v", groups)
	}

	// ngroup <= 0 selects DefaultNGroup: group sizes bounded by it.
	pos, mass = randomCloud(3000, 22)
	tr, _ = BuildFrom(pos, mass, 16, 2)
	var covered int32
	for _, g := range tr.MakeGroups(0) {
		if int(g.N) > DefaultNGroup && g.N > int32(tr.NLeaf) {
			t.Fatalf("ngroup=0: group size %d exceeds default %d", g.N, DefaultNGroup)
		}
		covered += g.N
	}
	if int(covered) != len(pos) {
		t.Fatalf("ngroup=0: groups cover %d of %d particles", covered, len(pos))
	}
}

func TestGroupsOfEdgeCases(t *testing.T) {
	if g := GroupsOf(nil, 64); len(g) != 0 {
		t.Fatalf("empty positions produced %d groups", len(g))
	}

	pos, _ := randomCloud(10, 23)
	// n < ngroup: one group of all particles with a tight box.
	groups := GroupsOf(pos, 64)
	if len(groups) != 1 || int(groups[0].N) != len(pos) {
		t.Fatalf("n<ngroup: groups = %+v", groups)
	}
	for _, p := range pos {
		if !groups[0].Box.Contains(p) {
			t.Fatal("group box misses a particle")
		}
	}

	// ngroup <= 0 selects DefaultNGroup.
	pos, _ = randomCloud(DefaultNGroup*2+5, 24)
	groups = GroupsOf(pos, 0)
	if len(groups) != 3 {
		t.Fatalf("ngroup=0 over %d particles: %d groups, want 3", len(pos), len(groups))
	}
	var covered int
	for _, g := range groups {
		covered += int(g.N)
	}
	if covered != len(pos) {
		t.Fatalf("groups cover %d of %d particles", covered, len(pos))
	}
}

func TestWalkStatsMatchAcrossWorkerCounts(t *testing.T) {
	// The interaction counts are a deterministic property of the group lists;
	// the work-stealing parallel walk must merge per-worker stats without
	// losing updates.
	pos, mass := clusteredCloud(4000, 25)
	tr, _ := BuildFrom(pos, mass, 16, 2)
	groups := tr.MakeGroups(64)
	n := tr.NumParticles()
	var ref grav.Stats
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	tr.Walk(groups, tr.Pos, 0.5, 1e-4, acc, pot, 1, &ref)
	for _, w := range []int{2, 4, 8, 16} {
		var st grav.Stats
		tr.Walk(groups, tr.Pos, 0.5, 1e-4, acc, pot, w, &st)
		if st != ref {
			t.Fatalf("workers=%d: stats %+v != serial %+v", w, st, ref)
		}
	}
}

// directForces computes the exact forces by O(N²) summation.
func directForces(pos []vec.V3, mass []float64, eps2 float64) ([]vec.V3, []float64) {
	n := len(pos)
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			f := grav.PP(pos[i], pos[j], mass[j], eps2)
			acc[i] = acc[i].Add(f.Acc)
			pot[i] += f.Pot
		}
	}
	return acc, pot
}

func treeForces(tr *Tree, theta, eps2 float64, st *grav.Stats) ([]vec.V3, []float64) {
	n := tr.NumParticles()
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	groups := tr.MakeGroups(DefaultNGroup)
	tr.Walk(groups, tr.Pos, theta, eps2, acc, pot, 4, st)
	// Remove the self-interaction picked up in softened p-p evaluation.
	eps := math.Sqrt(eps2)
	for i := range pot {
		pot[i] += tr.Mass[i] / eps
	}
	return acc, pot
}

func TestWalkMatchesDirectSummation(t *testing.T) {
	pos, mass := clusteredCloud(1500, 7)
	eps2 := 1e-4
	tr, perm := BuildFrom(pos, mass, 16, 2)

	wantAcc, wantPot := directForces(tr.Pos, tr.Mass, eps2)
	_ = perm

	for _, theta := range []float64{0.2, 0.4, 0.7} {
		var st grav.Stats
		acc, pot := treeForces(tr, theta, eps2, &st)
		// RMS relative acceleration error must shrink with theta; bounds from
		// standard BH accuracy experience with quadrupoles.
		var sum2, ref2 float64
		for i := range acc {
			sum2 += acc[i].Sub(wantAcc[i]).Norm2()
			ref2 += wantAcc[i].Norm2()
		}
		rms := math.Sqrt(sum2 / ref2)
		var bound float64
		switch theta {
		case 0.2:
			bound = 1e-4
		case 0.4:
			bound = 1e-3
		default:
			bound = 1e-2
		}
		if rms > bound {
			t.Errorf("theta=%v: rms acc error %v > %v", theta, rms, bound)
		}
		var potErr, potRef float64
		for i := range pot {
			potErr += (pot[i] - wantPot[i]) * (pot[i] - wantPot[i])
			potRef += wantPot[i] * wantPot[i]
		}
		if p := math.Sqrt(potErr / potRef); p > bound {
			t.Errorf("theta=%v: rms pot error %v > %v", theta, p, bound)
		}
		if st.PP == 0 || st.PC == 0 {
			t.Errorf("theta=%v: stats not recorded: %+v", theta, st)
		}
	}
}

func TestWalkErrorDecreasesWithTheta(t *testing.T) {
	pos, mass := randomCloud(1200, 8)
	eps2 := 1e-4
	tr, _ := BuildFrom(pos, mass, 16, 2)
	wantAcc, _ := directForces(tr.Pos, tr.Mass, eps2)

	var prev float64 = math.Inf(1)
	var prevPP uint64 = 0
	for _, theta := range []float64{0.8, 0.5, 0.3} {
		var st grav.Stats
		acc, _ := treeForces(tr, theta, eps2, &st)
		var sum2, ref2 float64
		for i := range acc {
			sum2 += acc[i].Sub(wantAcc[i]).Norm2()
			ref2 += wantAcc[i].Norm2()
		}
		rms := math.Sqrt(sum2 / ref2)
		if rms > prev*1.2 { // allow small noise, must broadly decrease
			t.Errorf("rms error grew when shrinking theta: %v -> %v", prev, rms)
		}
		if st.PP < prevPP {
			t.Errorf("p-p work should grow as theta shrinks: %d -> %d", prevPP, st.PP)
		}
		prev, prevPP = rms, st.PP
	}
}

func TestWalkInfinitesimalThetaIsDirect(t *testing.T) {
	// With a tiny opening angle the tree-code degenerates to direct
	// summation (paper §I.A) — forces must agree to the kernels' rounding.
	pos, mass := randomCloud(300, 9)
	eps2 := 1e-4
	tr, _ := BuildFrom(pos, mass, 8, 2)
	wantAcc, _ := directForces(tr.Pos, tr.Mass, eps2)
	var st grav.Stats
	acc, _ := treeForces(tr, 1e-9, eps2, &st)
	for i := range acc {
		if acc[i].Sub(wantAcc[i]).Norm() > grav.KernelTol()*(1+wantAcc[i].Norm()) {
			t.Fatalf("particle %d: %v != %v", i, acc[i], wantAcc[i])
		}
	}
	if st.PC != 0 {
		t.Errorf("expected no p-c interactions at theta→0, got %d", st.PC)
	}
}

func TestWalkParallelDeterminism(t *testing.T) {
	// Group lists are identical regardless of worker count; per-particle
	// force sums are evaluated in a fixed order within a group, so results
	// must be bitwise equal across worker counts.
	pos, mass := clusteredCloud(3000, 10)
	tr, _ := BuildFrom(pos, mass, 16, 2)
	groups := tr.MakeGroups(64)
	n := tr.NumParticles()
	ref := make([]vec.V3, n)
	refPot := make([]float64, n)
	tr.Walk(groups, tr.Pos, 0.5, 1e-4, ref, refPot, 1, nil)
	for _, w := range []int{2, 4, 8} {
		acc := make([]vec.V3, n)
		pot := make([]float64, n)
		tr.Walk(groups, tr.Pos, 0.5, 1e-4, acc, pot, w, nil)
		for i := range acc {
			if acc[i] != ref[i] || pot[i] != refPot[i] {
				t.Fatalf("workers=%d: nondeterministic result at particle %d", w, i)
			}
		}
	}
}

func TestEmptyAndTinyTrees(t *testing.T) {
	tr, _ := BuildFrom(nil, nil, 16, 2)
	if len(tr.Cells) != 0 || tr.NumParticles() != 0 {
		t.Fatal("empty tree malformed")
	}
	tr.Walk(nil, nil, 0.5, 1e-4, nil, nil, 2, nil) // must not panic

	pos := []vec.V3{{X: 0.5, Y: 0.5, Z: 0.5}}
	tr1, _ := BuildFrom(pos, []float64{2}, 16, 2)
	if tr1.TotalMass() != 2 || !tr1.Cells[0].Leaf {
		t.Fatal("single-particle tree malformed")
	}
}

func TestCoincidentParticles(t *testing.T) {
	// Many particles at the same location cannot be split below NLEAF; the
	// build must terminate at max depth with an oversized leaf.
	pos := make([]vec.V3, 100)
	mass := make([]float64, 100)
	for i := range pos {
		pos[i] = vec.V3{X: 0.25, Y: 0.5, Z: 0.75}
		mass[i] = 1
	}
	tr, _ := BuildFrom(pos, mass, 16, 2)
	if tr.TotalMass() != 100 {
		t.Fatalf("mass %v", tr.TotalMass())
	}
	if tr.Depth() == 0 {
		t.Fatal("no depth")
	}
}

func TestDepthGrowsWithClustering(t *testing.T) {
	posU, massU := randomCloud(2000, 11)
	posC, massC := clusteredCloud(2000, 11)
	tu, _ := BuildFrom(posU, massU, 16, 2)
	tc, _ := BuildFrom(posC, massC, 16, 2)
	if tc.Depth() <= tu.Depth() {
		t.Errorf("clustered depth %d <= uniform depth %d", tc.Depth(), tu.Depth())
	}
}

func BenchmarkBuild100k(b *testing.B) {
	pos, mass := clusteredCloud(100_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildFrom(pos, mass, 16, 0)
	}
}

func BenchmarkWalk100k(b *testing.B) {
	pos, mass := clusteredCloud(100_000, 1)
	tr, _ := BuildFrom(pos, mass, 16, 0)
	groups := tr.MakeGroups(64)
	n := tr.NumParticles()
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	b.ResetTimer()
	var st grav.Stats
	for i := 0; i < b.N; i++ {
		for j := range acc {
			acc[j] = vec.V3{}
			pot[j] = 0
		}
		tr.Walk(groups, tr.Pos, 0.4, 1e-4, acc, pot, 0, &st)
	}
	b.ReportMetric(st.Flops()/float64(b.N)/1e9, "Gflop/op")
	b.ReportMetric(float64(n)/float64(len(groups)), "targets/group")
}

func TestThetaCostLaw(t *testing.T) {
	// §IV: the paper adopts the O(θ⁻³) cost law for the opening angle.
	// Measure total interaction-weighted flops at θ and θ/2 for a
	// centrally-concentrated cloud: halving θ must multiply the cost by
	// well over 2 (the asymptotic law says 8; finite N and the p-p floor
	// soften it).
	parts := ic.MilkyWay(ic.DefaultMilkyWay(), 20000, 40, 2)
	pos := make([]vec.V3, len(parts))
	mass := make([]float64, len(parts))
	for i, p := range parts {
		pos[i] = p.Pos
		mass[i] = p.Mass
	}
	tr, _ := BuildFrom(pos, mass, 16, 2)
	groups := tr.MakeGroups(DefaultNGroup)
	cost := func(theta float64) grav.Stats {
		acc := make([]vec.V3, tr.NumParticles())
		pot := make([]float64, tr.NumParticles())
		var st grav.Stats
		tr.Walk(groups, tr.Pos, theta, 1e-4, acc, pot, 2, &st)
		return st
	}
	c6 := cost(0.6)
	c3 := cost(0.3)
	// The θ-sensitive term is the cell-interaction count; the p-p floor
	// (NLEAF leaves always opened nearby) dilutes the total-flop ratio.
	// The O(θ⁻³) law is asymptotic (Makino 1991, very large N); at 20k
	// particles the group-based MAC measures a softer power. Pin the
	// effective exponent into the physically sensible band [1, 3] and
	// require the cost to be clearly θ-sensitive.
	pcRatio := float64(c3.PC) / float64(c6.PC)
	exponent := math.Log(pcRatio) / math.Log(2)
	if exponent < 1.0 || exponent > 3.1 {
		t.Errorf("pc ~ θ^-%.2f (ratio %.2f); want an exponent in [1, 3]", exponent, pcRatio)
	}
	if flopRatio := c3.Flops() / c6.Flops(); flopRatio < 1.4 {
		t.Errorf("total cost ratio %v too weak", flopRatio)
	}
}

func TestTreeInvariantsQuick(t *testing.T) {
	// Property test over random cloud shapes: for any particle set, the
	// tree covers each particle exactly once across leaves, conserves mass,
	// and all cell boxes contain their particles.
	f := func(seedRaw int64, anisoRaw uint8) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		n := 100 + rng.Intn(900)
		aniso := 0.05 + float64(anisoRaw)/255.0
		pos := make([]vec.V3, n)
		mass := make([]float64, n)
		var want float64
		for i := range pos {
			pos[i] = vec.V3{
				X: rng.NormFloat64(),
				Y: aniso * rng.NormFloat64(),
				Z: aniso * aniso * rng.NormFloat64(),
			}
			mass[i] = 0.1 + rng.Float64()
			want += mass[i]
		}
		tr, _ := BuildFrom(pos, mass, 16, 1)
		covered := make([]int, n)
		for ci := range tr.Cells {
			c := &tr.Cells[ci]
			for j := c.Start; j < c.Start+c.N; j++ {
				if !c.Box.Contains(tr.Pos[j]) {
					return false
				}
				if c.Leaf {
					covered[j]++
				}
			}
		}
		for _, k := range covered {
			if k != 1 {
				return false
			}
		}
		return math.Abs(tr.TotalMass()-want) < 1e-9*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
