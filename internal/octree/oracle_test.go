package octree

import (
	"math"
	"slices"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/direct"
	"bonsai/internal/ic"
	"bonsai/internal/vec"
)

// An oracle that shares no code with the tree-code: the textbook
// pointer-based Barnes–Hut tree. Bodies are inserted one at a time by octant
// subdivision, a node is a cube with a mass, a mass-weighted position sum and
// a child slice, and the force on a body descends from the root accepting a
// node as one point mass when size/d < θ (d from the body to the node's
// centre of mass). No keys, no sort, no preorder, no groups, no multipole
// beyond the monopole; the tree uses nothing from this package, grav or vec
// (bhForces converts vec.V3 at its edge).

type bhNode struct {
	m     float64    // total mass
	mpos  [3]float64 // Σ mᵢ·xᵢ
	lo    [3]float64 // cube corner
	size  float64    // cube side
	child []*bhNode  // nil: one body (or bodies too close to separate)
}

// bhMaxDepth stops subdividing around coincident bodies; they stay one node.
const bhMaxDepth = 64

func (n *bhNode) insert(x [3]float64, m float64, depth int) {
	if n.m == 0 || (n.child == nil && depth >= bhMaxDepth) {
		n.add(x, m)
		return
	}
	if n.child == nil { // a single body lives here: push it down first
		n.child = make([]*bhNode, 8)
		old := [3]float64{n.mpos[0] / n.m, n.mpos[1] / n.m, n.mpos[2] / n.m}
		n.octant(old).insert(old, n.m, depth+1)
	}
	n.add(x, m)
	n.octant(x).insert(x, m, depth+1)
}

func (n *bhNode) add(x [3]float64, m float64) {
	n.m += m
	for k := range x {
		n.mpos[k] += m * x[k]
	}
}

// octant returns (creating it if absent) the child cube containing x.
func (n *bhNode) octant(x [3]float64) *bhNode {
	half := n.size / 2
	idx, lo := 0, n.lo
	for k := range x {
		if x[k] >= n.lo[k]+half {
			idx |= 1 << k
			lo[k] += half
		}
	}
	if n.child[idx] == nil {
		n.child[idx] = &bhNode{lo: lo, size: half}
	}
	return n.child[idx]
}

// accel adds to a the softened acceleration the node's mass exerts at x.
func (n *bhNode) accel(x [3]float64, theta, eps2 float64, a *[3]float64) {
	d := [3]float64{n.mpos[0]/n.m - x[0], n.mpos[1]/n.m - x[1], n.mpos[2]/n.m - x[2]}
	r2 := d[0]*d[0] + d[1]*d[1] + d[2]*d[2]
	if n.child != nil && !(n.size*n.size < theta*theta*r2) {
		for _, c := range n.child {
			if c != nil {
				c.accel(x, theta, eps2, a)
			}
		}
		return
	}
	if r2 == 0 {
		return // the body itself
	}
	rinv := 1 / math.Sqrt(r2+eps2)
	for k := range d {
		a[k] += n.m * d[k] * rinv * rinv * rinv
	}
}

// bhForces is the oracle end to end: bounding cube, insertion, one descent
// per body.
func bhForces(pos []vec.V3, mass []float64, theta, eps2 float64) []vec.V3 {
	xs := make([][3]float64, len(pos))
	lo := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for i, p := range pos {
		xs[i] = [3]float64{p.X, p.Y, p.Z}
		for k := range lo {
			lo[k], hi[k] = math.Min(lo[k], xs[i][k]), math.Max(hi[k], xs[i][k])
		}
	}
	root := &bhNode{lo: lo, size: 1.0001 * math.Max(hi[0]-lo[0], math.Max(hi[1]-lo[1], hi[2]-lo[2]))}
	for i, x := range xs {
		root.insert(x, mass[i], 0)
	}
	acc := make([]vec.V3, len(pos))
	for i, x := range xs {
		var a [3]float64
		root.accel(x, theta, eps2, &a)
		acc[i] = vec.V3{X: a[0], Y: a[1], Z: a[2]}
	}
	return acc
}

// relErr returns the p90 and the maximum of the per-particle |a − ref| / |ref|.
func relErr(a, ref []vec.V3) (p90, max float64) {
	e := make([]float64, len(a))
	for i := range a {
		e[i] = a[i].Sub(ref[i]).Norm() / ref[i].Norm()
	}
	slices.Sort(e)
	return e[len(e)*9/10], e[len(e)-1]
}

// TestWalkAgainstPointerBarnesHut holds Tree.Walk to the oracle at matched θ,
// with direct summation beside both for the absolute error.
//
// The two trees answer the same question differently: the oracle opens on
// size/d per body and sums monopoles; the walk opens on l/θ + δ from a group's
// box and carries quadrupoles. So they cannot agree to rounding, and the
// bounds below are set from what was measured at θ = 0.4, N = 8192 (relative
// acceleration error per particle, p90 / max):
//
//	set       walk↔direct      oracle↔direct    walk↔oracle      monopole walk↔direct
//	milkyway  8.3e-5 / 5.3e-4  3.3e-3 / 2.8e-2  3.3e-3 / 2.8e-2  6.3e-4
//	plummer   1.1e-4 / 7.4e-4  2.6e-3 / 2.6e-2  2.6e-3 / 2.6e-2  6.4e-4
//	blobs     1.2e-4 / 1.5e-3  3.9e-3 / 3.5e-2  3.9e-3 / 3.5e-2  7.0e-4
//
// The walk↔oracle gap is the oracle's own error: the walk is 24–39× closer to
// direct summation than the oracle is. Of that factor the quadrupoles are
// 6–7.5× (the last column: the same walk with every Quad zeroed) and the
// stricter group MAC the remaining 4–5.5×. Asserted: the oracle is a sound
// Barnes–Hut (p90 ≤ 6e-3 of direct); the walk agrees with it to its error
// (tolerance: p90 ≤ 6e-3, max ≤ 0.1); the walk is within 5e-3 of direct on
// every particle and at least 10× closer than the oracle at p90; and the
// quadrupoles are worth at least 3×. A walk that drops or double counts a
// subtree for any group misses the max bounds by orders of magnitude.
func TestWalkAgainstPointerBarnesHut(t *testing.T) {
	n := 8192
	if raceEnabled || testing.Short() {
		n = 2048
	}
	const theta = 0.4
	split := func(ps []body.Particle) (pos []vec.V3, mass []float64) {
		for _, p := range ps {
			pos, mass = append(pos, p.Pos), append(mass, p.Mass)
		}
		return pos, mass
	}
	mwPos, mwMass := split(ic.DefaultMilkyWay().Realize(n, 1, 1))
	plPos, plMass := split(ic.Plummer(n, 1, 1, 1, 1))
	blPos, blMass := clusteredCloud(n, 1)
	for _, tc := range []struct {
		name string
		pos  []vec.V3
		mass []float64
		eps  float64
	}{{"milkyway", mwPos, mwMass, 0.1}, {"plummer", plPos, plMass, 0.01}, {"blobs", blPos, blMass, 0.001}} {
		t.Run(tc.name, func(t *testing.T) {
			eps2 := tc.eps * tc.eps
			tr, _ := BuildFrom(tc.pos, tc.mass, DefaultNLeaf, 1)
			ref, _, _ := direct.Forces(tr.Pos, tr.Mass, eps2, 2)
			oracle := bhForces(tr.Pos, tr.Mass, theta, eps2)
			walk, _ := treeForces(tr, theta, eps2, nil)
			for i := range tr.Cells {
				tr.Cells[i].MP.Quad = vec.Sym3{}
			}
			mono, _ := treeForces(tr, theta, eps2, nil)

			walkErr, walkMax := relErr(walk, ref)
			oracleErr, oracleMax := relErr(oracle, ref)
			gap, gapMax := relErr(walk, oracle)
			monoErr, _ := relErr(mono, ref)
			t.Logf("p90 / max: walk↔direct %.2e / %.2e, oracle↔direct %.2e / %.2e, walk↔oracle %.2e / %.2e, monopole walk↔direct %.2e",
				walkErr, walkMax, oracleErr, oracleMax, gap, gapMax, monoErr)
			if oracleErr > 6e-3 {
				t.Errorf("oracle is %.2e from direct summation: not a sound Barnes–Hut", oracleErr)
			}
			if gap > 6e-3 || gapMax > 0.1 {
				t.Errorf("walk is %.2e (max %.2e) from the pointer-tree oracle at θ=%v, tolerance 6e-3 (0.1)", gap, gapMax, theta)
			}
			if walkMax > 5e-3 || !(10*walkErr < oracleErr) {
				t.Errorf("walk is %.2e (max %.2e) from direct, the monopole oracle %.2e: want max ≤ 5e-3 and the walk 10× closer",
					walkErr, walkMax, oracleErr)
			}
			if !(3*walkErr < monoErr) {
				t.Errorf("walk is %.2e from direct with quadrupoles, %.2e without: want 3×", walkErr, monoErr)
			}
		})
	}
}
