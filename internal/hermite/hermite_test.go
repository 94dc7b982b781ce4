package hermite

import (
	"math"
	"testing"

	"bonsai/internal/vec"
)

// circularBinary returns a two-body circular orbit (G=1, m=0.5 each,
// separation 1): period 2π/Ω with Ω² = M/r³ = 1.
func circularBinary() ([]vec.V3, []vec.V3, []float64) {
	pos := []vec.V3{{X: -0.5}, {X: 0.5}}
	v := 0.5 // each body's speed: v² r / ... Ω=1 → v = Ω·0.5
	vel := []vec.V3{{Y: -v}, {Y: v}}
	mass := []float64{0.5, 0.5}
	return pos, vel, mass
}

func TestBinaryEnergyConservation(t *testing.T) {
	pos, vel, mass := circularBinary()
	s := New(pos, vel, mass, 0, 0.01)
	k0, p0 := s.Energy()
	e0 := k0 + p0
	s.Advance(20 * 2 * math.Pi) // 20 orbits
	k1, p1 := s.Energy()
	if drift := math.Abs((k1 + p1 - e0) / e0); drift > 1e-8 {
		t.Errorf("energy drift over 20 orbits: %v", drift)
	}
}

func TestBinaryReturnsAfterOnePeriod(t *testing.T) {
	pos, vel, mass := circularBinary()
	s := New(pos, vel, mass, 0, 0.005)
	s.Advance(2 * math.Pi)
	if d := s.Pos[0].Sub(vec.V3{X: -0.5}).Norm(); d > 1e-4 {
		t.Errorf("body 0 missed its start by %v after one period", d)
	}
	if math.Abs(s.Time()-2*math.Pi) > 1e-12 {
		t.Errorf("time %v, want %v", s.Time(), 2*math.Pi)
	}
}

func TestEccentricOrbitAccuracy(t *testing.T) {
	// e≈0.9 binary: the Hermite scheme with adaptive steps must hold energy
	// through pericentre passages that would destroy a fixed-step leapfrog.
	pos := []vec.V3{{X: -0.95}, {X: 0.95}} // apocentre of a=1, e=0.9 orbit
	// vis-viva at apocentre: v² = M(2/r − 1/a), M=1, r=1.9, a=1.
	v := math.Sqrt(2/1.9 - 1)
	vel := []vec.V3{{Y: -v / 2}, {Y: v / 2}}
	mass := []float64{0.5, 0.5}
	s := New(pos, vel, mass, 0, 0.005)
	k0, p0 := s.Energy()
	s.Advance(5 * 2 * math.Pi) // a=1, M=1 → period 2π
	k1, p1 := s.Energy()
	if drift := math.Abs((k1 + p1 - k0 - p0) / (k0 + p0)); drift > 1e-6 {
		t.Errorf("energy drift on e=0.9 orbit: %v", drift)
	}
}

func TestFourthOrderConvergence(t *testing.T) {
	// Halving eta (≈ halving dt) must reduce the phase error by ~2⁴.
	finalErr := func(eta float64) float64 {
		pos, vel, mass := circularBinary()
		s := New(pos, vel, mass, 0, eta)
		s.Advance(2 * math.Pi)
		return s.Pos[0].Sub(vec.V3{X: -0.5}).Norm()
	}
	e1 := finalErr(0.08)
	e2 := finalErr(0.04)
	ratio := e1 / e2
	if ratio < 8 {
		t.Errorf("convergence ratio %v, want ≥ 8 (4th order gives ~16)", ratio)
	}
}

func TestKick(t *testing.T) {
	s := New([]vec.V3{{}}, []vec.V3{{X: 1}}, []float64{1}, 0, 0.01)
	s.Kick([]vec.V3{{X: -1, Y: 2}})
	if s.Vel[0] != (vec.V3{X: 0, Y: 2}) {
		t.Errorf("vel after kick %v", s.Vel[0])
	}
	s.Advance(1)
	if math.Abs(s.Pos[0].Y-2) > 1e-12 || math.Abs(s.Pos[0].X) > 1e-12 {
		t.Errorf("pos after drift %v", s.Pos[0])
	}
}

func TestAdaptiveStepsShrinkAtPericentre(t *testing.T) {
	// The eccentric orbit needs more sub-steps per radian near pericentre.
	pos := []vec.V3{{X: -0.95}, {X: 0.95}}
	v := math.Sqrt(2/1.9 - 1)
	vel := []vec.V3{{Y: -v / 2}, {Y: v / 2}}
	mass := []float64{0.5, 0.5}
	s := New(pos, vel, mass, 0, 0.01)
	apoSteps := s.Advance(0.5)  // near apocentre
	s.Advance(math.Pi - 1.0)    // approach pericentre
	periSteps := s.Advance(0.5) // through pericentre
	if periSteps <= apoSteps {
		t.Errorf("pericentre steps %d not more than apocentre steps %d", periSteps, apoSteps)
	}
}

func TestSofteningRemovesSingularity(t *testing.T) {
	// Head-on collision with strong softening must stay finite and keep its
	// energy: the bodies oscillate through each other.
	pos := []vec.V3{{X: -1}, {X: 1}}
	vel := []vec.V3{{X: 0.1}, {X: -0.1}}
	mass := []float64{1, 1}
	s := New(pos, vel, mass, 0.3, 0.01)
	k0, p0 := s.Energy()
	s.Advance(4)
	for i := range s.Pos {
		if !s.Pos[i].IsFinite() || !s.Vel[i].IsFinite() {
			t.Fatal("softened collision diverged")
		}
	}
	k1, p1 := s.Energy()
	if drift := math.Abs((k1 + p1 - k0 - p0) / (k0 + p0)); drift > 1e-4 {
		t.Errorf("energy drift through softened passage: %v", drift)
	}
}
