package ic

import (
	"math"
	"math/rand"
	"sort"

	"bonsai/internal/body"
	"bonsai/internal/units"
	"bonsai/internal/vec"
)

// This file supports the paper's §I "type 1" galaxy simulations: "an
// analytic, static potential dark matter halo and a live (N-body) disk"
// (the Dubinski and D'Onghia setups the paper contrasts with its own fully
// live runs). The spheroidal components (NFW halo + Hernquist bulge) become
// a closed-form radial field; only the disk is realized with particles, so
// a given disk resolution costs ~13x fewer particles.

// StaticField is an analytic field: given a position it returns the
// acceleration and specific potential there. It is the type of
// sim.Config.External.
type StaticField = func(pos vec.V3) (acc vec.V3, pot float64)

// StaticHalo returns the spherically averaged analytic field of the model's
// halo and bulge in galactic units (G = units.G): the acceleration is
// -G·M(<r)/r² r̂ and the potential integrates the same mass profile
// (continuous at the truncation radii, Keplerian beyond them). Pair it with
// RealizeDiskOnly and a simulation whose GravConst is units.G.
func (m MilkyWayModel) StaticHalo() StaticField {
	const g = units.G
	// Tabulate M(<r) for halo+bulge and integrate the potential inward:
	// φ(r) = -g M_tot/r_max − g ∫_r^{r_max} M(<s)/s² ds.
	const nbins = 1024
	rmax := m.HaloCut * 4
	rmin := 1e-4
	rs := make([]float64, nbins)
	ms := make([]float64, nbins)
	lr0, lr1 := math.Log(rmin), math.Log(rmax)
	for i := 0; i < nbins; i++ {
		r := math.Exp(lr0 + (lr1-lr0)*float64(i)/float64(nbins-1))
		rs[i] = r
		ms[i] = m.haloMassWithin(r) + m.bulgeMassWithin(r)
	}
	pots := make([]float64, nbins)
	pots[nbins-1] = -g * ms[nbins-1] / rs[nbins-1]
	for i := nbins - 2; i >= 0; i-- {
		// Trapezoidal step of g M(<s)/s² between r_i and r_{i+1}.
		f0 := g * ms[i] / (rs[i] * rs[i])
		f1 := g * ms[i+1] / (rs[i+1] * rs[i+1])
		pots[i] = pots[i+1] - 0.5*(f0+f1)*(rs[i+1]-rs[i])
	}
	mTot := ms[nbins-1]

	return func(pos vec.V3) (vec.V3, float64) {
		r := pos.Norm()
		switch {
		case r <= rs[0]:
			// Near the centre: harmonic core from the innermost shell.
			mEnc := ms[0] * (r / rs[0]) * (r / rs[0]) * (r / rs[0])
			if r == 0 {
				return vec.V3{}, pots[0]
			}
			return pos.Scale(-g * mEnc / (r * r * r)), pots[0]
		case r >= rs[nbins-1]:
			return pos.Scale(-g * mTot / (r * r * r)), -g * mTot / r
		}
		i := sort.SearchFloat64s(rs, r)
		f := (r - rs[i-1]) / (rs[i] - rs[i-1])
		mEnc := ms[i-1]*(1-f) + ms[i]*f
		pot := pots[i-1]*(1-f) + pots[i]*f
		return pos.Scale(-g * mEnc / (r * r * r)), pot
	}
}

// RealizeDiskOnly samples only the model's stellar disk with n equal-mass
// particles; velocities are still drawn against the full model's rotation
// curve, so the disk orbits correctly inside the matching StaticHalo field.
// For a given disk resolution this costs ~13x fewer particles than the fully
// live model. IDs are 0..n-1; generation is deterministic and chunk-parallel
// like Realize.
func (m MilkyWayModel) RealizeDiskOnly(n int, seed int64, workers int) []body.Particle {
	prof := m.buildProfile()
	return realize(n, seed, workers, m.DiskMass/float64(n), func(rng *rand.Rand, _ int) body.Particle {
		return m.diskParticle(rng, prof)
	})
}
