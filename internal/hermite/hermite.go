// Package hermite implements a 4th-order Hermite predictor-corrector
// integrator with direct force summation — the classic collisional N-body
// scheme (Makino & Aarseth 1992).
//
// The paper's §VII sketches Bonsai's next step: "The gravitational
// interactions around the black holes require the accuracy of a direct
// N-body code ... running on the CPU while the tree-code would be running
// on the GPU", coupled AMUSE-style. This package is that direct code: the
// tree-code handles the galaxy, and a small dense subsystem (a massive
// black hole and its stellar cusp) is advanced here with far higher
// accuracy than leapfrog provides. Package bridge couples the two.
package hermite

import (
	"math"

	"bonsai/internal/vec"
)

// System is a small collisional N-body system integrated with shared,
// adaptive Hermite time steps.
type System struct {
	Pos  []vec.V3
	Vel  []vec.V3
	Mass []float64

	// Eps2 is the squared softening; zero gives pure Newtonian forces.
	Eps2 float64
	// Eta is the dimensionless accuracy parameter of the Aarseth time-step
	// criterion (typical 0.01-0.02).
	Eta float64

	acc  []vec.V3
	jerk []vec.V3
	time float64
}

// New creates a Hermite system from initial conditions (slices are copied).
func New(pos, vel []vec.V3, mass []float64, eps, eta float64) *System {
	n := len(pos)
	s := &System{
		Pos:  append([]vec.V3(nil), pos...),
		Vel:  append([]vec.V3(nil), vel...),
		Mass: append([]float64(nil), mass...),
		Eps2: eps * eps,
		Eta:  eta,
		acc:  make([]vec.V3, n),
		jerk: make([]vec.V3, n),
	}
	if s.Eta <= 0 {
		s.Eta = 0.014
	}
	s.forces(s.Pos, s.Vel, s.acc, s.jerk)
	return s
}

// N returns the particle count.
func (s *System) N() int { return len(s.Pos) }

// Time returns the internal time of the system.
func (s *System) Time() float64 { return s.time }

// forces computes accelerations and jerks by direct summation.
func (s *System) forces(pos, vel []vec.V3, acc, jerk []vec.V3) {
	n := len(pos)
	for i := 0; i < n; i++ {
		var a, j vec.V3
		for k := 0; k < n; k++ {
			if k == i {
				continue
			}
			dr := pos[k].Sub(pos[i])
			dv := vel[k].Sub(vel[i])
			r2 := dr.Norm2() + s.Eps2
			rinv := 1 / math.Sqrt(r2)
			rinv2 := rinv * rinv
			mrinv3 := s.Mass[k] * rinv * rinv2
			rv := dr.Dot(dv) * rinv2
			a = a.Add(dr.Scale(mrinv3))
			// jerk: m [dv/r³ − 3(r·v)r/r⁵]
			j = j.Add(dv.Scale(mrinv3)).Sub(dr.Scale(3 * rv * mrinv3))
		}
		acc[i] = a
		jerk[i] = j
	}
}

// stepSize returns the shared Aarseth time step.
func (s *System) stepSize() float64 {
	dt := math.Inf(1)
	for i := range s.Pos {
		a2 := s.acc[i].Norm2()
		j2 := s.jerk[i].Norm2()
		if j2 == 0 {
			continue
		}
		if t := s.Eta * math.Sqrt(a2/j2); t < dt {
			dt = t
		}
	}
	if math.IsInf(dt, 1) {
		dt = s.Eta
	}
	return dt
}

// Advance integrates the system forward by exactly `dt` using as many
// adaptive Hermite predictor-corrector steps as needed, and returns the
// number of sub-steps taken.
func (s *System) Advance(dt float64) int {
	target := s.time + dt
	steps := 0
	n := s.N()
	predPos := make([]vec.V3, n)
	predVel := make([]vec.V3, n)
	newAcc := make([]vec.V3, n)
	newJerk := make([]vec.V3, n)

	// Floor the sub-step at 1e-6 of the requested advance: it guarantees
	// termination (≤ 1e6 sub-steps) even when a hard encounter drives the
	// Aarseth criterion toward zero.
	hmin := dt * 1e-6
	for s.time < target-1e-15*math.Abs(target) {
		h := s.stepSize()
		if h < hmin {
			h = hmin
		}
		if s.time+h > target {
			h = target - s.time
		}
		h2 := h * h / 2
		h3 := h * h * h / 6

		// Predict.
		for i := 0; i < n; i++ {
			predPos[i] = s.Pos[i].
				Add(s.Vel[i].Scale(h)).
				Add(s.acc[i].Scale(h2)).
				Add(s.jerk[i].Scale(h3))
			predVel[i] = s.Vel[i].
				Add(s.acc[i].Scale(h)).
				Add(s.jerk[i].Scale(h2))
		}
		// Evaluate at prediction.
		s.forces(predPos, predVel, newAcc, newJerk)
		// Correct (4th-order Hermite corrector):
		//   v₁ = v₀ + (a₀+a₁)h/2 + (j₀−j₁)h²/12
		//   x₁ = x₀ + (v₀+v₁)h/2 + (a₀−a₁)h²/12
		for i := 0; i < n; i++ {
			oldVel := s.Vel[i]
			s.Vel[i] = oldVel.
				Add(s.acc[i].Add(newAcc[i]).Scale(h / 2)).
				Add(s.jerk[i].Sub(newJerk[i]).Scale(h * h / 12))
			s.Pos[i] = s.Pos[i].
				Add(oldVel.Add(s.Vel[i]).Scale(h / 2)).
				Add(s.acc[i].Sub(newAcc[i]).Scale(h * h / 12))
			s.acc[i] = newAcc[i]
			s.jerk[i] = newJerk[i]
		}
		s.time += h
		steps++
	}
	return steps
}

// Energy returns kinetic and potential energy.
func (s *System) Energy() (kin, pot float64) {
	n := s.N()
	for i := 0; i < n; i++ {
		kin += 0.5 * s.Mass[i] * s.Vel[i].Norm2()
		for k := i + 1; k < n; k++ {
			r := math.Sqrt(s.Pos[k].Sub(s.Pos[i]).Norm2() + s.Eps2)
			pot -= s.Mass[i] * s.Mass[k] / r
		}
	}
	return kin, pot
}

// Kick applies an instantaneous velocity change (the bridge kick) and
// refreshes the internal force state so the next prediction is consistent.
func (s *System) Kick(dv []vec.V3) {
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Add(dv[i])
	}
	s.forces(s.Pos, s.Vel, s.acc, s.jerk)
}
