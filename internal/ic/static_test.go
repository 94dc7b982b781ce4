package ic

import (
	"math"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/sim"
	"bonsai/internal/units"
	"bonsai/internal/vec"
)

func TestStaticHaloFieldMatchesEnclosedMass(t *testing.T) {
	m := DefaultMilkyWay()
	field := m.StaticHalo()
	for _, r := range []float64{0.5, 2, 8, 50, 200} {
		acc, _ := field(vec.V3{X: r})
		want := -units.G * (m.haloMassWithin(r) + m.bulgeMassWithin(r)) / (r * r)
		if math.Abs(acc.X-want) > 2e-3*math.Abs(want) {
			t.Errorf("r=%v: acc %v, want %v", r, acc.X, want)
		}
		if acc.Y != 0 || acc.Z != 0 {
			t.Errorf("r=%v: field not radial: %v", r, acc)
		}
	}
}

func TestStaticHaloFieldGradientConsistency(t *testing.T) {
	// acc = -∇φ, checked by central differences of the tabulated potential.
	m := DefaultMilkyWay()
	field := m.StaticHalo()
	for _, r := range []float64{1, 5, 20, 100} {
		// The difference step spans several table segments so the numeric
		// gradient averages over the piecewise-linear interpolation.
		h := 0.05 * r
		_, pPlus := field(vec.V3{X: r + h})
		_, pMinus := field(vec.V3{X: r - h})
		grad := (pPlus - pMinus) / (2 * h)
		acc, _ := field(vec.V3{X: r})
		if math.Abs(acc.X+grad) > 1e-2*math.Abs(grad) {
			t.Errorf("r=%v: acc %v vs -grad %v", r, acc.X, -grad)
		}
	}
}

func TestStaticHaloFieldKeplerianFarField(t *testing.T) {
	m := DefaultMilkyWay()
	field := m.StaticHalo()
	mtot := m.HaloMass + m.BulgeMass
	r := m.HaloCut * 10
	acc, pot := field(vec.V3{X: r})
	if math.Abs(acc.X+units.G*mtot/(r*r)) > 1e-6*units.G*mtot/(r*r) {
		t.Errorf("far field acc %v", acc.X)
	}
	if math.Abs(pot+units.G*mtot/r) > 1e-6*units.G*mtot/r {
		t.Errorf("far field pot %v", pot)
	}
	// Center: finite.
	a0, p0 := field(vec.V3{})
	if a0 != (vec.V3{}) || math.IsInf(p0, 0) || math.IsNaN(p0) {
		t.Errorf("central field %v %v", a0, p0)
	}
}

func TestDiskOnlyRealization(t *testing.T) {
	m := DefaultMilkyWay()
	const n = 8000
	parts := m.RealizeDiskOnly(n, 3, 2)
	if len(parts) != n {
		t.Fatal("count")
	}
	if got := body.TotalMass(parts); math.Abs(got-m.DiskMass) > 1e-9*m.DiskMass {
		t.Errorf("disk-only mass %v, want %v", got, m.DiskMass)
	}
	// Deterministic and chunk-invariant.
	again := m.RealizeDiskOnly(n, 3, 5)
	for i := range parts {
		if parts[i] != again[i] {
			t.Fatal("not chunk-invariant")
		}
	}
	// Flat and rotating.
	var z2, vphi float64
	var cnt int
	for _, p := range parts {
		z2 += p.Pos.Z * p.Pos.Z
		r := math.Hypot(p.Pos.X, p.Pos.Y)
		if r > 7 && r < 9 {
			vphi += (p.Pos.X*p.Vel.Y - p.Pos.Y*p.Vel.X) / r
			cnt++
		}
	}
	if z := math.Sqrt(z2 / float64(n)); z > 1 {
		t.Errorf("disk-only z_rms %v", z)
	}
	if cnt > 0 && vphi/float64(cnt) < 120 {
		t.Errorf("disk-only rotation %v km/s too slow", vphi/float64(cnt))
	}
}

func TestLiveDiskInStaticHalo(t *testing.T) {
	// The §I "type 1" configuration: live disk, analytic halo+bulge. The
	// disk must stay in equilibrium — same regression as the fully live
	// test, at ~13x fewer particles for the same disk sampling.
	if testing.Short() {
		t.Skip("multi-step simulation")
	}
	m := DefaultMilkyWay()
	const n = 6000
	parts := m.RealizeDiskOnly(n, 7, 2)
	s, err := sim.New(sim.Config{
		Ranks: 2, Theta: 0.4, GravConst: units.G,
		Softening: 0.05,
		DT:        units.SuggestedDT(20000 * 13), // matching softening scale
		External:  m.StaticHalo(),
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	r0 := diskMedianRadius(s)
	s.Run(10)
	r1 := diskMedianRadius(s)
	if math.Abs(r1-r0)/r0 > 0.1 {
		t.Errorf("live disk in static halo drifted: R50 %v -> %v", r0, r1)
	}
	// Energy (including the external potential) is conserved.
	k0, p0 := s.Energy()
	s.Run(10)
	k1, p1 := s.Energy()
	if drift := math.Abs((k1 + p1 - k0 - p0) / (k0 + p0)); drift > 5e-3 {
		t.Errorf("energy drift with external field: %v", drift)
	}
}

func diskMedianRadius(s *sim.Simulation) float64 {
	ps := s.Particles()
	rs := make([]float64, 0, len(ps))
	for _, p := range ps {
		rs = append(rs, math.Hypot(p.Pos.X, p.Pos.Y))
	}
	return median(rs)
}
