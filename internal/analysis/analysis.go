// Package analysis computes the observables of the paper's science section
// (§IV, Fig. 3): face-on surface-density maps of the Galactic disk, the
// (vR, vφ) velocity-space structure of the solar neighbourhood ("moving
// groups"), and the bar diagnostics (m=2 Fourier amplitude and phase, from
// which the bar's formation time and pattern speed are measured).
package analysis

import (
	"fmt"
	"io"
	"math"

	"bonsai/internal/body"
	"bonsai/internal/vec"
)

// Filter selects particles for an analysis (e.g. disk stars only). A nil
// filter selects everything.
type Filter func(p body.Particle) bool

// ---------------------------------------------------------------------------
// Surface density maps (Fig. 3 top panels)

// DensityMap is a face-on (x, y) surface-density grid in mass per area,
// covering [-Extent, Extent]² with N×N pixels; Data is row-major with y as
// the row index.
type DensityMap struct {
	N      int
	Extent float64
	Data   []float64
}

// SurfaceDensity deposits the selected particles' mass onto the grid
// (nearest-grid-point) and normalizes by pixel area.
func SurfaceDensity(parts []body.Particle, f Filter, extent float64, n int) DensityMap {
	m := DensityMap{N: n, Extent: extent, Data: make([]float64, n*n)}
	cell := 2 * extent / float64(n)
	area := cell * cell
	for i := range parts {
		if f != nil && !f(parts[i]) {
			continue
		}
		p := parts[i].Pos
		ix := int((p.X + extent) / cell)
		iy := int((p.Y + extent) / cell)
		if ix < 0 || ix >= n || iy < 0 || iy >= n {
			continue
		}
		m.Data[iy*n+ix] += parts[i].Mass / area
	}
	return m
}

// At returns the surface density of pixel (ix, iy).
func (m DensityMap) At(ix, iy int) float64 { return m.Data[iy*m.N+ix] }

// Total integrates the map back to mass.
func (m DensityMap) Total() float64 {
	cell := 2 * m.Extent / float64(m.N)
	var sum float64
	for _, v := range m.Data {
		sum += v
	}
	return sum * cell * cell
}

// RenderPGM writes the map as a portable graymap, log-scaled over the
// occupied dynamic range — the repository's stand-in for the paper's
// rendered panels.
func (m DensityMap) RenderPGM(w io.Writer) error {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range m.Data {
		if v > 0 {
			l := math.Log10(v)
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
	}
	if lo > hi { // empty map
		lo, hi = 0, 1
	}
	// Compress to 3 decades below the maximum for contrast.
	if hi-lo > 3 {
		lo = hi - 3
	}
	if _, err := fmt.Fprintf(w, "P2\n%d %d\n255\n", m.N, m.N); err != nil {
		return err
	}
	for y := m.N - 1; y >= 0; y-- { // top row first
		for x := 0; x < m.N; x++ {
			v := m.Data[y*m.N+x]
			g := 0
			if v > 0 {
				f := (math.Log10(v) - lo) / (hi - lo)
				if f < 0 {
					f = 0
				}
				if f > 1 {
					f = 1
				}
				g = int(255 * f)
			}
			if _, err := fmt.Fprintf(w, "%d ", g); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Solar-neighbourhood velocity structure (Fig. 3 bottom-left)

// VelocityHist is a 2-D histogram of (vR, vφ−⟨vφ⟩) for stars within a
// selection sphere, the simulated analogue of the RAVE moving-group map the
// paper compares to (Fig. 3 bottom-left, the "moving groups" map).
// Velocities span [-VMax, VMax] with N bins per axis; Counts is row-major
// with the vφ bin as the row index.
type VelocityHist struct {
	N            int
	VMax         float64
	Counts       []int
	Stars        int     // stars that fell inside the selection sphere
	MeanVR       float64 // mean vR of the selected stars
	MeanRotation float64 // mean vφ, subtracted from the histogram's vφ axis
}

// Count returns the number of stars in cell (i, j): vR bin i, vφ bin j.
func (h VelocityHist) Count(i, j int) int { return h.Counts[j*h.N+i] }

// SolarNeighborhood histograms the in-plane velocity components of selected
// particles within `radius` of sunPos (paper: 500 pc around R☉ = 8 kpc).
// vR is positive outward; the mean rotation is subtracted from vφ.
func SolarNeighborhood(parts []body.Particle, f Filter, sunPos vec.V3, radius, vmax float64, bins int) VelocityHist {
	h := VelocityHist{N: bins, VMax: vmax, Counts: make([]int, bins*bins)}
	type rec struct{ vr, vp float64 }
	var sel []rec
	var sumVR, sumVP float64
	for i := range parts {
		if f != nil && !f(parts[i]) {
			continue
		}
		if parts[i].Pos.Sub(sunPos).Norm() > radius {
			continue
		}
		p, v := parts[i].Pos, parts[i].Vel
		r := math.Hypot(p.X, p.Y)
		if r == 0 {
			continue
		}
		vr := (p.X*v.X + p.Y*v.Y) / r
		vp := (p.X*v.Y - p.Y*v.X) / r
		sel = append(sel, rec{vr, vp})
		sumVR += vr
		sumVP += vp
	}
	h.Stars = len(sel)
	if len(sel) == 0 {
		return h
	}
	h.MeanVR = sumVR / float64(len(sel))
	h.MeanRotation = sumVP / float64(len(sel))
	scale := float64(bins) / (2 * vmax)
	for _, s := range sel {
		ix := int((s.vr + vmax) * scale)
		iy := int((s.vp - h.MeanRotation + vmax) * scale)
		if ix < 0 || ix >= bins || iy < 0 || iy >= bins {
			continue
		}
		h.Counts[iy*bins+ix]++
	}
	return h
}

// ---------------------------------------------------------------------------
// Bar diagnostics

// BarStrength returns the m=2 Fourier amplitude A2 = |Σ m e^{2iφ}| / Σ m and
// its phase (the bar position angle, in radians, range [-π/2, π/2)) for
// selected particles with cylindrical radius ≤ rmax.
func BarStrength(parts []body.Particle, f Filter, rmax float64) (a2, phase float64) {
	var c, s, w float64
	for i := range parts {
		if f != nil && !f(parts[i]) {
			continue
		}
		p := parts[i].Pos
		r := math.Hypot(p.X, p.Y)
		if r > rmax || r == 0 {
			continue
		}
		phi := math.Atan2(p.Y, p.X)
		c += parts[i].Mass * math.Cos(2*phi)
		s += parts[i].Mass * math.Sin(2*phi)
		w += parts[i].Mass
	}
	if w == 0 {
		return 0, 0
	}
	a2 = math.Hypot(c, s) / w
	phase = 0.5 * math.Atan2(s, c)
	return a2, phase
}

// PatternSpeed estimates the bar pattern speed Ω_b from two phase
// measurements separated by dt, unwrapping the m=2 phase ambiguity
// (phases are modulo π).
func PatternSpeed(phase0, phase1, dt float64) float64 {
	d := phase1 - phase0
	for d > math.Pi/2 {
		d -= math.Pi
	}
	for d < -math.Pi/2 {
		d += math.Pi
	}
	return d / dt
}

// ---------------------------------------------------------------------------
// Profiles

// RadialProfile returns the azimuthally averaged surface density in nbins
// annuli out to rmax.
func RadialProfile(parts []body.Particle, f Filter, rmax float64, nbins int) []float64 {
	mass := make([]float64, nbins)
	for i := range parts {
		if f != nil && !f(parts[i]) {
			continue
		}
		r := math.Hypot(parts[i].Pos.X, parts[i].Pos.Y)
		b := int(r / rmax * float64(nbins))
		if b >= 0 && b < nbins {
			mass[b] += parts[i].Mass
		}
	}
	out := make([]float64, nbins)
	dr := rmax / float64(nbins)
	for b := range mass {
		r0 := float64(b) * dr
		r1 := r0 + dr
		area := math.Pi * (r1*r1 - r0*r0)
		out[b] = mass[b] / area
	}
	return out
}

// DiskThickness returns the rms height of selected particles.
func DiskThickness(parts []body.Particle, f Filter) float64 {
	var sum float64
	var n int
	for i := range parts {
		if f != nil && !f(parts[i]) {
			continue
		}
		sum += parts[i].Pos.Z * parts[i].Pos.Z
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// VelocityDispersion returns the dispersion of the radial (in-plane)
// velocity component for selected particles in an annulus — the disk-heating
// diagnostic used to argue for large N (§II).
func VelocityDispersion(parts []body.Particle, f Filter, r0, r1 float64) float64 {
	var sum, sum2 float64
	var n int
	for i := range parts {
		if f != nil && !f(parts[i]) {
			continue
		}
		p, v := parts[i].Pos, parts[i].Vel
		r := math.Hypot(p.X, p.Y)
		if r < r0 || r > r1 || r == 0 {
			continue
		}
		vr := (p.X*v.X + p.Y*v.Y) / r
		sum += vr
		sum2 += vr * vr
		n++
	}
	if n < 2 {
		return 0
	}
	mean := sum / float64(n)
	return math.Sqrt(sum2/float64(n) - mean*mean)
}

// RotationCurve returns the mean tangential velocity of selected particles
// in nbins annuli out to rmax — the measured vc(R) to compare against the
// model's circular velocity, and the first sanity check of any disk run.
func RotationCurve(parts []body.Particle, f Filter, rmax float64, nbins int) []float64 {
	sum := make([]float64, nbins)
	cnt := make([]int, nbins)
	for i := range parts {
		if f != nil && !f(parts[i]) {
			continue
		}
		p, v := parts[i].Pos, parts[i].Vel
		r := math.Hypot(p.X, p.Y)
		b := int(r / rmax * float64(nbins))
		if b < 0 || b >= nbins || r == 0 {
			continue
		}
		sum[b] += (p.X*v.Y - p.Y*v.X) / r
		cnt[b]++
	}
	out := make([]float64, nbins)
	for b := range out {
		if cnt[b] > 0 {
			out[b] = sum[b] / float64(cnt[b])
		}
	}
	return out
}

// ToomreQ returns the Toomre stability parameter Q = σR κ / (3.36 G Σ) of
// the selected particles in an annulus, measuring everything from the
// particles themselves: σR from the radial velocities, κ from the measured
// rotation curve, Σ from the surface density. Q ≲ 1 marks a disk unstable
// to axisymmetric collapse; the paper's model starts near Q = 1.2.
func ToomreQ(parts []body.Particle, f Filter, g, r0, r1 float64) float64 {
	sigmaR := VelocityDispersion(parts, f, r0, r1)
	if sigmaR == 0 {
		return 0
	}
	// Mean vφ and surface density inside/outside the annulus midpoint.
	mid := 0.5 * (r0 + r1)
	dr := 0.25 * (r1 - r0)
	vphiAt := func(rlo, rhi float64) float64 {
		var sum float64
		var n int
		for i := range parts {
			if f != nil && !f(parts[i]) {
				continue
			}
			p, v := parts[i].Pos, parts[i].Vel
			r := math.Hypot(p.X, p.Y)
			if r < rlo || r > rhi || r == 0 {
				continue
			}
			sum += (p.X*v.Y - p.Y*v.X) / r
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	vIn := vphiAt(mid-3*dr, mid-dr)
	vOut := vphiAt(mid+dr, mid+3*dr)
	vMid := vphiAt(mid-dr, mid+dr)
	if vMid == 0 {
		return 0
	}
	dvdr := (vOut - vIn) / (4 * dr)
	omega := vMid / mid
	k2 := 2 * omega * (omega + dvdr)
	if k2 <= 0 {
		return 0
	}
	kappa := math.Sqrt(k2)

	var mass float64
	for i := range parts {
		if f != nil && !f(parts[i]) {
			continue
		}
		r := math.Hypot(parts[i].Pos.X, parts[i].Pos.Y)
		if r >= r0 && r <= r1 {
			mass += parts[i].Mass
		}
	}
	area := math.Pi * (r1*r1 - r0*r0)
	sigma := mass / area
	if sigma == 0 {
		return 0
	}
	return sigmaR * kappa / (3.36 * g * sigma)
}
