package bonsai

import (
	"bonsai/internal/analysis"
	"bonsai/internal/direct"
	"bonsai/internal/vec"
)

// Filter selects particles for an analysis; nil selects all particles.
type Filter = analysis.Filter

// ComponentFilter builds a Filter selecting one Milky Way component of an
// n-particle realization of the model.
func ComponentFilter(g GalaxyModel, n int, c GalaxyComponent) Filter {
	return func(p Particle) bool { return g.ComponentOf(p.ID, n) == c }
}

// DensityMap is a face-on surface-density grid of N×N pixels (see
// SurfaceDensity), with At, Total and RenderPGM (a log-scaled portable
// graymap image).
type DensityMap = analysis.DensityMap

// SurfaceDensity deposits selected particles onto an n×n face-on grid
// covering [-extent, extent]² kpc — the reproduction of the paper's Fig. 3
// density panels.
func SurfaceDensity(parts []Particle, f Filter, extent float64, n int) DensityMap {
	return analysis.SurfaceDensity(parts, f, extent, n)
}

// VelocityHist is the 2-D (vR, vφ−⟨vφ⟩) histogram of solar-neighbourhood
// stars (see SolarNeighborhood): N bins per axis, Count(i, j) stars in cell
// (i, j), Stars inside the selection sphere, and their MeanRotation.
type VelocityHist = analysis.VelocityHist

// SolarNeighborhood histograms the in-plane velocities of selected particles
// within radius kpc of sunPos (paper: 500 pc around the solar position at
// 8 kpc from the Galactic Centre).
func SolarNeighborhood(parts []Particle, f Filter, sunPos Vec3, radius, vmax float64, bins int) VelocityHist {
	return analysis.SolarNeighborhood(parts, f, sunPos, radius, vmax, bins)
}

// BarStrength returns the m=2 Fourier amplitude A2 and phase of the
// selected particles within cylindrical radius rmax — the bar-formation
// diagnostic for the Fig. 3 evolution.
func BarStrength(parts []Particle, f Filter, rmax float64) (a2, phase float64) {
	return analysis.BarStrength(parts, f, rmax)
}

// PatternSpeed converts two bar phases separated by dt into a pattern speed,
// unwrapping the m=2 ambiguity.
func PatternSpeed(phase0, phase1, dt float64) float64 {
	return analysis.PatternSpeed(phase0, phase1, dt)
}

// RadialProfile returns the azimuthally averaged surface density in nbins
// annuli out to rmax.
func RadialProfile(parts []Particle, f Filter, rmax float64, nbins int) []float64 {
	return analysis.RadialProfile(parts, f, rmax, nbins)
}

// DiskThickness returns the rms height of the selected particles.
func DiskThickness(parts []Particle, f Filter) float64 {
	return analysis.DiskThickness(parts, f)
}

// VelocityDispersion returns the radial velocity dispersion of selected
// particles in the cylindrical annulus [r0, r1] — the numerical disk-heating
// diagnostic of §II.
func VelocityDispersion(parts []Particle, f Filter, r0, r1 float64) float64 {
	return analysis.VelocityDispersion(parts, f, r0, r1)
}

// DirectForces computes exact softened forces by O(N²) summation — the
// accuracy referee and the Fig. 1 baseline. Returns accelerations and
// specific potentials ordered like parts.
func DirectForces(parts []Particle, eps float64) ([]Vec3, []float64) {
	pos := make([]vec.V3, len(parts))
	mass := make([]float64, len(parts))
	for i := range parts {
		pos[i] = parts[i].Pos
		mass[i] = parts[i].Mass
	}
	acc, pot, _ := direct.Forces(pos, mass, eps*eps, 0)
	return acc, pot
}

// RotationCurve returns the mean tangential velocity of selected particles
// in nbins annuli out to rmax kpc.
func RotationCurve(parts []Particle, f Filter, rmax float64, nbins int) []float64 {
	return analysis.RotationCurve(parts, f, rmax, nbins)
}
