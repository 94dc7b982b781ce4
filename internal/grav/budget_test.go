package grav_test

import (
	"slices"
	"testing"

	"bonsai/internal/grav"
	"bonsai/internal/ic"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// TestFloat32ErrorBudget pins what the float32 kernels cost a whole walk, not
// one call: grav.KernelTol bounds a single PPBatch/PCBatch against a weighted
// contribution norm, and nothing else bounds a group's list of thousands of
// entries accumulated in float32 tiles. Every group of a Milky Way walk (the
// default leaf and group sizes) is gathered once and evaluated through the
// dispatched pair, on every tier the host supports, and through the scalar
// float64 pair; the statistic is the per-particle relative difference of the
// resulting acceleration. Measured (p50, p99, max):
//
//	         avx2+fma                  avx512f
//	16k      8.1e-8, 4.2e-7, 9.6e-6    4.0e-8, 4.0e-7, 9.9e-6
//	100k     7.5e-8, 2.1e-7, 6.3e-6    3.6e-8, 1.6e-7, 6.3e-6
//
// — two to three orders below the walk's own approximation error at θ = 0.4
// (8e-5 at p90, TestWalkAgainstPointerBarnesHut). These are the line every
// kernel tier has to hold. The p50 and p99 bounds are 2.5–3× the eight-lane
// measurement (VRSQRTPS seeds differ between CPU vendors). The 16k maximum is
// the tight one, within 5% of its pin on both tiers: it is why the frame's
// origin is the centre of the targets' box (from the first target it measures
// 1.10e-5 and 1.12e-5) and why groups stop at 128 targets (at 256 it fails on
// both tiers). The 100k maximum has its own, looser bound (it measured 1.1e-5
// to 1.2e-5 with 64-target groups and the first target as origin); that case
// is left out of -short and -race runs.
func TestFloat32ErrorBudget(t *testing.T) {
	if grav.KernelISA() == "scalar" {
		t.Skip("dispatched kernels are the scalar reference")
	}
	for _, c := range []struct {
		n              int
		p50, p99, pmax float64
	}{
		{16384, 2e-7, 1.2e-6, 1e-5},
		{100_000, 2e-7, 1.2e-6, 2.5e-5},
	} {
		if c.n > 16384 && (testing.Short() || raceEnabled) {
			continue
		}
		tr, cells := milkyWayTree(c.n)
		grav.ForEachTier(func() {
			p50, p99, pmax := float32Budget(tr, cells)
			t.Logf("%s vs scalar over %d particles: p50 %.2e, p99 %.2e, max %.2e", grav.KernelISA(), c.n, p50, p99, pmax)
			if p50 > c.p50 || p99 > c.p99 || pmax > c.pmax {
				t.Errorf("%s, n=%d: float32 tier is p50 %.2e, p99 %.2e, max %.2e from the scalar walk; budget %.2g, %.2g, %.2g",
					grav.KernelISA(), c.n, p50, p99, pmax, c.p50, c.p99, c.pmax)
			}
		})
	}
}

// milkyWayTree builds the tree and θ = 0.4 walk view of an n-particle Milky
// Way, with the tree code's default leaf size.
func milkyWayTree(n int) (*octree.Tree, []octree.ViewCell) {
	parts := ic.MilkyWay(ic.DefaultMilkyWay(), n, 1, 1)
	pos, mass := make([]vec.V3, len(parts)), make([]float64, len(parts))
	for i, p := range parts {
		pos[i], mass[i] = p.Pos, p.Mass
	}
	tr, _ := octree.BuildFrom(pos, mass, octree.DefaultNLeaf, 1)
	return tr, tr.WalkView(0.4)
}

// float32Budget returns the p50, p99 and max of TestFloat32ErrorBudget's
// statistic over the walk of tr, on the dispatched kernels.
func float32Budget(tr *octree.Tree, cells []octree.ViewCell) (p50, p99, pmax float64) {
	const eps2 = 0.1 * 0.1
	var w octree.Walker
	var fast, ref grav.Targets
	rel := make([]float64, 0, len(tr.Pos))
	for _, g := range tr.MakeGroups(octree.DefaultNGroup) {
		w.Gather(tr, cells, g.Box)
		tpos := tr.Pos[g.Start : g.Start+g.N]
		fast.Gather(tpos)
		grav.PCBatch(fast.X, fast.Y, fast.Z, &w.PC, eps2, fast.AX, fast.AY, fast.AZ, fast.Pot)
		grav.PPBatch(fast.X, fast.Y, fast.Z, &w.PP, eps2, fast.AX, fast.AY, fast.AZ, fast.Pot)
		ref.Gather(tpos)
		grav.PCBatchScalar(ref.X, ref.Y, ref.Z, &w.PC, eps2, ref.AX, ref.AY, ref.AZ, ref.Pot)
		grav.PPBatchScalar(ref.X, ref.Y, ref.Z, &w.PP, eps2, ref.AX, ref.AY, ref.AZ, ref.Pot)
		for i := range tpos {
			a := vec.V3{X: ref.AX[i], Y: ref.AY[i], Z: ref.AZ[i]}
			d := vec.V3{X: fast.AX[i], Y: fast.AY[i], Z: fast.AZ[i]}.Sub(a)
			rel = append(rel, d.Norm()/a.Norm())
		}
	}
	slices.Sort(rel)
	return rel[len(rel)/2], rel[len(rel)*99/100], rel[len(rel)-1]
}
