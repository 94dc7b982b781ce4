package ic

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"bonsai/internal/body"
	"bonsai/internal/units"
	"bonsai/internal/vec"
)

// MilkyWayModel describes the paper's Galaxy model (§IV, after Widrow, Pym &
// Dubinski 2008): an NFW dark-matter halo, an exponential stellar disk, and
// a Hernquist bulge, realized with equal-mass particles so the three
// components are populated proportionally to their masses (avoiding the
// numerical heating caused by unequal masses).
type MilkyWayModel struct {
	// Masses in units of 1e10 M⊙.
	HaloMass  float64 // paper: 6.0e11 M⊙ → 60
	DiskMass  float64 // paper: 5.0e10 M⊙ → 5
	BulgeMass float64 // paper: 4.6e9 M⊙ → 0.46

	// Halo: NFW profile ρ ∝ 1/(x (1+x)²), x = r/HaloScale, truncated at
	// HaloCut.
	HaloScale float64 // kpc
	HaloCut   float64 // kpc

	// Disk: Σ ∝ exp(-R/DiskScale), vertical sech² with scale height
	// DiskHeight, truncated at DiskCut; radial dispersion set by Toomre Q.
	DiskScale  float64 // kpc
	DiskHeight float64 // kpc
	DiskCut    float64 // kpc
	ToomreQ    float64

	// Bulge: Hernquist profile with scale BulgeScale, truncated at BulgeCut.
	BulgeScale float64 // kpc
	BulgeCut   float64 // kpc
}

// DefaultMilkyWay returns the paper's model parameters (masses from §IV;
// structural scales from the Widrow & Dubinski Milky Way fits).
func DefaultMilkyWay() MilkyWayModel {
	return MilkyWayModel{
		HaloMass:  60,
		DiskMass:  5,
		BulgeMass: 0.46,

		HaloScale: 20,
		HaloCut:   250,

		DiskScale:  2.8,
		DiskHeight: 0.3,
		DiskCut:    30,

		ToomreQ: 1.2,

		BulgeScale: 0.7,
		BulgeCut:   4,
	}
}

// Counts splits n equal-mass particles across the components in proportion
// to their masses, mirroring the paper's 1:3:47.5 bulge:disk:halo split.
func (m MilkyWayModel) Counts(n int) (bulge, disk, halo int) {
	total := m.HaloMass + m.DiskMass + m.BulgeMass
	bulge = int(float64(n) * m.BulgeMass / total)
	disk = int(float64(n) * m.DiskMass / total)
	halo = n - bulge - disk
	return bulge, disk, halo
}

// Component identifies which structural component of the model a particle
// belongs to. A realization assigns IDs so that the bulge, disk and halo
// blocks are contiguous, in that order.
type Component int

// The model's components.
const (
	Bulge Component = iota
	Disk
	Halo
)

func (c Component) String() string {
	switch c {
	case Bulge:
		return "bulge"
	case Disk:
		return "disk"
	case Halo:
		return "halo"
	}
	return "unknown"
}

// ComponentOf returns the component of the particle with the given ID in an
// n-particle realization (Realize).
func (m MilkyWayModel) ComponentOf(id int64, n int) Component {
	nb, nd, _ := m.Counts(n)
	switch {
	case id < int64(nb):
		return Bulge
	case id < int64(nb+nd):
		return Disk
	default:
		return Halo
	}
}

// Realize samples the model with n equal-mass particles, generated
// deterministically and in parallel chunks exactly as the paper generates
// its initial conditions on the fly; component membership is recoverable
// from particle IDs via ComponentOf. Velocities are assigned from the
// spherically averaged total potential: the spheroidal components (halo,
// bulge) solve the isotropic Jeans equation; the disk uses circular motion
// with epicyclic dispersions set by Toomre Q and vertical equilibrium, plus
// the asymmetric-drift correction. The particles are in galactic units (kpc,
// km/s, 1e10 M⊙), shifted to the centre-of-mass frame.
func (m MilkyWayModel) Realize(n int, seed int64, workers int) []body.Particle {
	nb, nd, _ := m.Counts(n)
	// The spherically averaged cumulative mass profile M(<r) of the full
	// model drives all velocity assignments.
	prof := m.buildProfile()
	mass := (m.HaloMass + m.DiskMass + m.BulgeMass) / float64(n)
	parts := realize(n, seed, workers, mass, func(rng *rand.Rand, i int) body.Particle {
		switch {
		case i < nb:
			return m.bulgeParticle(rng, prof)
		case i < nb+nd:
			return m.diskParticle(rng, prof)
		default:
			return m.haloParticle(rng, prof)
		}
	})
	centerOfMassFrame(parts)
	return parts
}

// realize draws n particles of the given mass with IDs 0..n-1, particle i
// from sample. The indices are cut into 4096-particle chunks run at most
// workers at a time (workers <= 0 selects one); chunk [lo, hi) draws from its
// own RNG stream newChunkRNG(seed, lo), so the result is independent of the
// worker count and any rank can generate any slice of a model.
func realize(n int, seed int64, workers int, mass float64, sample func(rng *rand.Rand, i int) body.Particle) []body.Particle {
	parts := make([]body.Particle, n)
	const chunk = 4096
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(workers, 1))
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		sem <- struct{}{}
		go func(lo, hi int) {
			defer wg.Done()
			defer func() { <-sem }()
			rng := newChunkRNG(seed, lo)
			for i := lo; i < hi; i++ {
				p := sample(rng, i)
				p.Mass = mass
				p.ID = int64(i)
				parts[i] = p
			}
		}(lo, hi)
	}
	wg.Wait()
	return parts
}

// newChunkRNG derives the deterministic RNG stream of the particle chunk
// starting at index lo; any rank can therefore generate any slice of a model
// without coordination (the paper's on-the-fly distributed IC generation).
func newChunkRNG(seed int64, lo int) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(uint64(lo)*0x9E3779B97F4A7C15)))
}

// ---------------------------------------------------------------------------
// Spherically averaged mass profile

type profile struct {
	r []float64 // radii (log spaced)
	m []float64 // cumulative mass inside r (all components)
}

func (m MilkyWayModel) buildProfile() *profile {
	const nbins = 512
	rmax := m.HaloCut * 1.2
	rmin := 1e-3
	p := &profile{r: make([]float64, nbins), m: make([]float64, nbins)}
	lr0, lr1 := math.Log(rmin), math.Log(rmax)
	for i := 0; i < nbins; i++ {
		r := math.Exp(lr0 + (lr1-lr0)*float64(i)/float64(nbins-1))
		p.r[i] = r
		p.m[i] = m.haloMassWithin(r) + m.bulgeMassWithin(r) + m.diskMassWithin(r)
	}
	return p
}

// MassWithin interpolates the cumulative mass profile.
func (p *profile) MassWithin(r float64) float64 {
	if r <= p.r[0] {
		return p.m[0] * (r / p.r[0]) * (r / p.r[0]) * (r / p.r[0])
	}
	if r >= p.r[len(p.r)-1] {
		return p.m[len(p.m)-1]
	}
	i := sort.SearchFloat64s(p.r, r)
	r0, r1 := p.r[i-1], p.r[i]
	f := (r - r0) / (r1 - r0)
	return p.m[i-1]*(1-f) + p.m[i]*f
}

// Vcirc returns the circular velocity at radius r from the spherical
// approximation v² = G M(<r)/r.
func (p *profile) Vcirc(r float64) float64 {
	if r <= 0 {
		return 0
	}
	return math.Sqrt(units.G * p.MassWithin(r) / r)
}

func (m MilkyWayModel) haloMassWithin(r float64) float64 {
	if r > m.HaloCut {
		r = m.HaloCut
	}
	x := r / m.HaloScale
	xc := m.HaloCut / m.HaloScale
	nfw := func(x float64) float64 { return math.Log(1+x) - x/(1+x) }
	return m.HaloMass * nfw(x) / nfw(xc)
}

func (m MilkyWayModel) bulgeMassWithin(r float64) float64 {
	if r > m.BulgeCut {
		r = m.BulgeCut
	}
	h := func(r float64) float64 { return r * r / ((r + m.BulgeScale) * (r + m.BulgeScale)) }
	return m.BulgeMass * h(r) / h(m.BulgeCut)
}

func (m MilkyWayModel) diskMassWithin(r float64) float64 {
	// Spherically averaged: treat the (thin) disk's enclosed mass at
	// cylindrical radius r.
	if r > m.DiskCut {
		r = m.DiskCut
	}
	e := func(r float64) float64 {
		x := r / m.DiskScale
		return 1 - (1+x)*math.Exp(-x)
	}
	return m.DiskMass * e(r) / e(m.DiskCut)
}

// ---------------------------------------------------------------------------
// Component samplers

// haloParticle samples the truncated NFW halo with isotropic Jeans
// dispersion.
func (m MilkyWayModel) haloParticle(rng *rand.Rand, prof *profile) body.Particle {
	// Invert the cumulative NFW mass by bisection.
	target := rng.Float64() * m.haloMassWithin(m.HaloCut)
	r := bisectMass(func(r float64) float64 { return m.haloMassWithin(r) }, target, 1e-4, m.HaloCut)
	pos := isotropic(rng, r)
	sigma := m.jeansSigma(r, prof, func(s float64) float64 { return m.haloDensity(s) })
	vel := vec.V3{X: sigma * rng.NormFloat64(), Y: sigma * rng.NormFloat64(), Z: sigma * rng.NormFloat64()}
	return body.Particle{Pos: pos, Vel: vel}
}

// bulgeParticle samples the truncated Hernquist bulge with isotropic Jeans
// dispersion.
func (m MilkyWayModel) bulgeParticle(rng *rand.Rand, prof *profile) body.Particle {
	target := rng.Float64() * m.bulgeMassWithin(m.BulgeCut)
	r := bisectMass(func(r float64) float64 { return m.bulgeMassWithin(r) }, target, 1e-5, m.BulgeCut)
	pos := isotropic(rng, r)
	sigma := m.jeansSigma(r, prof, func(s float64) float64 { return m.bulgeDensity(s) })
	vel := vec.V3{X: sigma * rng.NormFloat64(), Y: sigma * rng.NormFloat64(), Z: sigma * rng.NormFloat64()}
	return body.Particle{Pos: pos, Vel: vel}
}

// diskParticle samples the exponential disk: R from the cumulative surface
// density, z from sech², azimuth uniform; velocities are circular with
// epicyclic dispersions.
func (m MilkyWayModel) diskParticle(rng *rand.Rand, prof *profile) body.Particle {
	target := rng.Float64() * m.diskMassWithin(m.DiskCut)
	r := bisectMass(func(r float64) float64 { return m.diskMassWithin(r) }, target, 1e-4, m.DiskCut)
	phi := 2 * math.Pi * rng.Float64()
	// sech² vertical profile: z = zd * atanh(2u-1), u clamped away from the
	// endpoints so z stays finite (|z| ≤ ~14 scale heights).
	u := math.Min(math.Max(rng.Float64(), 1e-12), 1-1e-12)
	z := m.DiskHeight * math.Atanh(2*u-1)
	pos := vec.V3{X: r * math.Cos(phi), Y: r * math.Sin(phi), Z: z}

	vc := prof.Vcirc(r)
	kappa := m.epicyclic(r, prof)
	sigmaR := m.sigmaR(r, kappa)
	omega := vc / math.Max(r, 1e-6)
	sigmaPhi := sigmaR * kappa / (2 * omega)
	sigmaZ := math.Sqrt(math.Pi * units.G * m.surfaceDensity(r) * m.DiskHeight)

	// Asymmetric drift correction (lowest order): v̄φ² = vc² − σR²(2R/Rd − 1 + ...)
	va2 := vc*vc - sigmaR*sigmaR*(2*r/m.DiskScale-1)
	if va2 < 0 {
		va2 = 0
	}
	vphi := math.Sqrt(va2) + sigmaPhi*rng.NormFloat64()
	vr := sigmaR * rng.NormFloat64()
	vz := sigmaZ * rng.NormFloat64()

	sin, cos := math.Sin(phi), math.Cos(phi)
	vel := vec.V3{
		X: vr*cos - vphi*sin,
		Y: vr*sin + vphi*cos,
		Z: vz,
	}
	return body.Particle{Pos: pos, Vel: vel}
}

// ---------------------------------------------------------------------------
// Dynamics helpers

func (m MilkyWayModel) haloDensity(r float64) float64 {
	if r > m.HaloCut {
		return 0
	}
	x := r / m.HaloScale
	nfw := func(x float64) float64 { return math.Log(1+x) - x/(1+x) }
	rho0 := m.HaloMass / (4 * math.Pi * math.Pow(m.HaloScale, 3) * nfw(m.HaloCut/m.HaloScale))
	return rho0 / (x * (1 + x) * (1 + x))
}

func (m MilkyWayModel) bulgeDensity(r float64) float64 {
	if r > m.BulgeCut {
		return 0
	}
	a := m.BulgeScale
	h := func(r float64) float64 { return r * r / ((r + a) * (r + a)) }
	norm := m.BulgeMass / h(m.BulgeCut)
	return norm * a / (2 * math.Pi * r * math.Pow(r+a, 3))
}

// surfaceDensity is the disk's surface density at cylindrical radius r.
func (m MilkyWayModel) surfaceDensity(r float64) float64 {
	e := func(r float64) float64 {
		x := r / m.DiskScale
		return 1 - (1+x)*math.Exp(-x)
	}
	sigma0 := m.DiskMass / e(m.DiskCut) / (2 * math.Pi * m.DiskScale * m.DiskScale)
	return sigma0 * math.Exp(-r/m.DiskScale)
}

// jeansSigma solves the isotropic spherical Jeans equation
// ρσ²(r) = ∫_r^∞ ρ(s) G M(<s)/s² ds for the 1-D dispersion σ.
func (m MilkyWayModel) jeansSigma(r float64, prof *profile, rho func(float64) float64) float64 {
	rhoR := rho(r)
	if rhoR <= 0 {
		return 0
	}
	// Log-spaced integration from r to the halo cut.
	const steps = 64
	rmax := m.HaloCut * 1.2
	if r >= rmax {
		return 0
	}
	sum := 0.0
	lr0, lr1 := math.Log(r), math.Log(rmax)
	prevS := r
	prevF := rho(r) * units.G * prof.MassWithin(r) / (r * r)
	for i := 1; i <= steps; i++ {
		s := math.Exp(lr0 + (lr1-lr0)*float64(i)/steps)
		f := rho(s) * units.G * prof.MassWithin(s) / (s * s)
		sum += 0.5 * (prevF + f) * (s - prevS)
		prevS, prevF = s, f
	}
	return math.Sqrt(sum / rhoR)
}

// epicyclic returns the epicyclic frequency κ from the spherical rotation
// curve: κ² = 2Ω(Ω + dvc/dR)... computed as κ² = 2Ω/R d(R² Ω)/dR via finite
// differences of vc.
func (m MilkyWayModel) epicyclic(r float64, prof *profile) float64 {
	h := math.Max(1e-3, 1e-3*r)
	vc0 := prof.Vcirc(math.Max(r-h, 1e-6))
	vc1 := prof.Vcirc(r + h)
	vc := prof.Vcirc(r)
	dvdr := (vc1 - vc0) / (2 * h)
	omega := vc / math.Max(r, 1e-6)
	k2 := 2 * omega * (omega + dvdr + 1e-12)
	if k2 <= 0 {
		k2 = omega * omega
	}
	return math.Sqrt(k2)
}

// sigmaR sets the radial velocity dispersion from the Toomre criterion:
// σR = Q · 3.36 G Σ / κ.
func (m MilkyWayModel) sigmaR(r, kappa float64) float64 {
	if kappa <= 0 {
		return 0
	}
	return m.ToomreQ * 3.36 * units.G * m.surfaceDensity(r) / kappa
}

// bisectMass inverts a monotone cumulative mass function.
func bisectMass(mass func(float64) float64, target, lo, hi float64) float64 {
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if mass(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}
