// Package units defines the galactic unit system used by the Milky Way
// simulations and the physical constants needed to convert to and from it.
//
// The simulation-internal units are:
//
//	length:   1 kpc
//	velocity: 1 km/s
//	mass:     1e10 solar masses
//
// which fixes G = 43007.1 kpc (km/s)² / (1e10 M⊙) and the time unit to
// kpc/(km/s) = 0.97779 Gyr. These are the conventional "galactic units" used
// by disk-galaxy simulators (GalactICS among them), so model parameters can
// be copied from the paper directly.
package units

import "math"

// Physical constants and conversion factors.
const (
	// G is the gravitational constant in simulation units:
	// kpc (km/s)^2 / (1e10 Msun). (The familiar GADGET value.)
	G = 43007.1

	// KpcPerKmsToGyr converts one internal time unit (kpc per km/s) to Gyr.
	KpcPerKmsToGyr = 0.97779

	// GyrToInternal converts Gyr to internal time units.
	GyrToInternal = 1.0 / KpcPerKmsToGyr

	// MassUnitMsun is the internal mass unit expressed in solar masses.
	MassUnitMsun = 1e10

	// PcPerKpc converts kpc to pc.
	PcPerKpc = 1000.0
)

// Gyr converts an internal simulation time to gigayears.
func Gyr(t float64) float64 { return t * KpcPerKmsToGyr }

// FromGyr converts gigayears to internal simulation time.
func FromGyr(gyr float64) float64 { return gyr * GyrToInternal }

// SofteningForN returns the Plummer softening length (kpc) appropriate for an
// N-particle realization of the paper's Milky Way model. The paper uses
// eps = 1 pc at N = 51e9; spatial resolution scales as O(N^-1/3), so smaller
// runs use proportionally larger softening.
func SofteningForN(n int) float64 {
	const (
		paperEps = 1.0 / PcPerKpc // 1 pc in kpc
		paperN   = 51.2e9
	)
	if n <= 0 {
		return paperEps
	}
	ratio := paperN / float64(n)
	return paperEps * math.Cbrt(ratio)
}

// MinTimeStepForEps returns the paper's accuracy-motivated minimal time step
// for softening eps (kpc): the time for two particles to pass each other
// within a softening length (§VI.C: 75,000 yr at eps = 1 pc). The crossing
// velocity scale is taken as the paper's implied 13 km/s (1 pc / 75 kyr).
func MinTimeStepForEps(eps float64) float64 {
	const vScale = 13.044 // km/s, chosen so eps=1pc gives 75,000 yr
	return eps / vScale   // internal time units (kpc / (km/s))
}

// SuggestedDT returns a leapfrog step for an n-particle Milky Way model:
// the paper's softening-crossing criterion (relaxed 20x, appropriate for a
// collisionless leapfrog), capped at 2 Myr — about 1% of the disk's orbital
// period — which is the binding constraint at reduced particle counts where
// the softening becomes large.
func SuggestedDT(n int) float64 {
	dt := MinTimeStepForEps(SofteningForN(n)) * 20
	if capDT := FromGyr(0.002); dt > capDT {
		return capDT
	}
	return dt
}
