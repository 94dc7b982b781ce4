package ic

import (
	"math"
	"sort"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/sim"
	"bonsai/internal/units"
)

// TestMilkyWayDiskEquilibriumUnderGravity is the regression test for the
// galactic unit system: the Milky Way model, evolved by the tree-code with
// G = units.G, must hold its disk structure over tens of Myr. (A missing or
// wrong gravitational constant makes the disk fly apart ballistically
// within a couple of orbital times.)
func TestMilkyWayDiskEquilibriumUnderGravity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation")
	}
	model := DefaultMilkyWay()
	const n = 20000
	parts := model.Realize(n, 7, 2)
	nb, nd, _ := model.Counts(n)
	s, err := sim.New(sim.Config{
		Ranks: 2, Theta: 0.4, GravConst: units.G,
		Softening: units.SofteningForN(n), DT: units.SuggestedDT(n),
	}, parts)
	if err != nil {
		t.Fatal(err)
	}

	diskStat := func(ps []body.Particle) (r50, z50, meanVR float64) {
		var rs, zs []float64
		var vrSum float64
		for _, p := range ps {
			if p.ID < int64(nb) || p.ID >= int64(nb+nd) {
				continue
			}
			r := math.Hypot(p.Pos.X, p.Pos.Y)
			rs = append(rs, r)
			zs = append(zs, math.Abs(p.Pos.Z))
			if r > 0 {
				vrSum += (p.Pos.X*p.Vel.X + p.Pos.Y*p.Vel.Y) / r
			}
		}
		sort.Float64s(rs)
		sort.Float64s(zs)
		return rs[len(rs)/2], zs[len(zs)/2], vrSum / float64(len(rs))
	}

	r0, z0, _ := diskStat(s.Particles())
	s.Run(10) // 20 Myr
	r1, z1, vr := diskStat(s.Particles())

	if math.Abs(r1-r0)/r0 > 0.15 {
		t.Errorf("disk half-mass radius drifted %v -> %v in 20 Myr", r0, r1)
	}
	if z1 > 2.5*z0 {
		t.Errorf("disk thickness blew up: %v -> %v", z0, z1)
	}
	if math.Abs(vr) > 20 {
		t.Errorf("coherent radial flow %v km/s — disk not in equilibrium", vr)
	}
}
