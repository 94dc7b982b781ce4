package bonsai

import (
	"bonsai/internal/ic"
)

// NewPlummer samples an isotropic equilibrium Plummer sphere: n particles of
// total mass totalMass (1e10 M⊙ units, or model units with g=1), scale
// radius a, gravitational constant g (use bonsai.G for galactic units, 1 for
// model units). Deterministic in seed.
func NewPlummer(n int, totalMass, a, g float64, seed int64) []Particle {
	return ic.Plummer(n, totalMass, a, g, seed)
}

// GalaxyComponent identifies which structural component of the Milky Way
// model a particle belongs to (see GalaxyModel.ComponentOf); it prints as
// "bulge", "disk" or "halo".
type GalaxyComponent = ic.Component

// The Milky Way model's components.
const (
	Bulge = ic.Bulge
	Disk  = ic.Disk
	Halo  = ic.Halo
)

// GalaxyModel describes a Milky-Way-like galaxy: an NFW dark halo, an
// exponential stellar disk and a Hernquist bulge realized with equal-mass
// particles (paper §IV). All masses in 1e10 M⊙, lengths in kpc. Its methods
// realize it (Realize) and split a realization into components (Counts,
// ComponentOf).
type GalaxyModel = ic.MilkyWayModel

// MilkyWayModel returns the paper's Galaxy parameters: a 6.0e11 M⊙ NFW
// halo, 5.0e10 M⊙ exponential disk and 4.6e9 M⊙ Hernquist bulge.
func MilkyWayModel() GalaxyModel { return ic.DefaultMilkyWay() }

// NewMilkyWay realizes the paper's default Milky Way model with n particles.
// The particles are in galactic units (kpc, km/s, 1e10 M⊙): simulations of
// them must set Config.GravConst to bonsai.G.
func NewMilkyWay(n int, seed int64) []Particle {
	return MilkyWayModel().Realize(n, seed, 0)
}
