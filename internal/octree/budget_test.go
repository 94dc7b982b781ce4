package octree

import (
	"slices"
	"testing"

	"bonsai/internal/grav"
	"bonsai/internal/ic"
	"bonsai/internal/vec"
)

// TestFloat32ErrorBudget pins what the dispatched float32 kernels cost a whole
// walk, not one call: grav.KernelTol bounds a single PPBatch/PCBatch against a
// weighted contribution norm, and nothing else bounds a group's ~3000-entry
// list accumulated in float32 tiles. Every group of a 16k Milky Way walk is
// gathered once and evaluated through the dispatched pair and through the
// scalar float64 pair; the statistic is the per-particle relative difference
// of the resulting acceleration. Measured on avx2+fma: p50 8.2e-8, p99
// 5.3e-7, max 4.7e-6 — two to three orders below the walk's own
// approximation error at θ = 0.4 (8e-5 at p90, TestWalkAgainstPointerBarnesHut).
// The bounds are ~2× the measurement (VRSQRTPS seeds differ between CPU
// vendors): the line the next kernel tier has to hold.
func TestFloat32ErrorBudget(t *testing.T) {
	if grav.KernelISA() == "scalar" {
		t.Skip("dispatched kernels are the scalar reference")
	}
	const theta, eps2 = 0.4, 0.1 * 0.1
	parts := ic.MilkyWay(ic.DefaultMilkyWay(), 16384, 1, 1)
	pos, mass := make([]vec.V3, len(parts)), make([]float64, len(parts))
	for i, p := range parts {
		pos[i], mass[i] = p.Pos, p.Mass
	}
	tr, _ := BuildFrom(pos, mass, DefaultNLeaf, 1)
	cells := tr.WalkView(theta)

	var w Walker
	var fast, ref grav.Targets
	rel := make([]float64, 0, len(pos))
	for _, g := range tr.MakeGroups(DefaultNGroup) {
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
	p50, p99, max := rel[len(rel)/2], rel[len(rel)*99/100], rel[len(rel)-1]
	t.Logf("%s vs scalar over %d particles: p50 %.2e, p99 %.2e, max %.2e", grav.KernelISA(), len(rel), p50, p99, max)
	if p50 > 2e-7 || p99 > 1.2e-6 || max > 1e-5 {
		t.Errorf("float32 tier is p50 %.2e, p99 %.2e, max %.2e from the scalar walk; budget 2e-7, 1.2e-6, 1e-5", p50, p99, max)
	}
}
