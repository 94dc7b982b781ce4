// Batched SoA force kernels: the CPU analogue of the paper's block-evaluation
// GPU kernels (§V-VI; Bédorf, Gaburov & Portegies Zwart 2012). The tree-walk
// gathers each target group's interaction list once into contiguous
// structure-of-arrays scratch — x/y/z/m slices for particle sources, multipole
// field slices for cell sources — and then evaluates the whole group against
// the whole list in two tight inner loops. Compared with per-pair PP/PC calls
// returning Force structs, the batched layout eliminates call and struct
// overhead per interaction, lets the compiler drop bounds checks, and streams
// sources linearly through the cache exactly once per group.
//
// PPBatch and PCBatch dispatch to the fastest kernel the host supports: on
// amd64 with AVX2+FMA an assembly kernel evaluates eight float32 source lanes
// per instruction (DESIGN.md §12); everywhere else — and always under the
// `noasm` build tag — the scalar float64 Go loops below run. The scalar loops
// are the reference semantics: the SIMD path agrees with them to KernelTol
// (FuzzKernelEquivalence), and hands them every call outside its range.
package grav

import (
	"math"
	"time"

	"bonsai/internal/vec"
)

// PPSoA is a gathered particle-source list in structure-of-arrays layout:
// contiguous position and mass slices the batched p-p kernel streams with a
// bounds-check-free inner loop. A PPSoA is reusable scratch — Reset keeps the
// capacity from previous gathers — and PPBatch writes to it: one list is
// evaluated by one goroutine at a time.
type PPSoA struct {
	X, Y, Z, M []float64

	f32 []float32 // the SIMD kernel's narrowed tile, allocated on first use
}

// Reset empties the list, retaining capacity.
func (s *PPSoA) Reset() {
	s.X, s.Y, s.Z, s.M = s.X[:0], s.Y[:0], s.Z[:0], s.M[:0]
}

// Resize sets the list length to n, keeping capacity and the elements below
// the old length; the walk's gather then fills the new slots by index
// instead of appending one element at a time.
func (s *PPSoA) Resize(n int) {
	s.X, s.Y, s.Z, s.M = growTo(s.X, n), growTo(s.Y, n), growTo(s.Z, n), growTo(s.M, n)
}

// Append adds one source particle.
func (s *PPSoA) Append(p vec.V3, m float64) {
	s.X = append(s.X, p.X)
	s.Y = append(s.Y, p.Y)
	s.Z = append(s.Z, p.Z)
	s.M = append(s.M, m)
}

// Len returns the number of gathered sources.
func (s *PPSoA) Len() int { return len(s.X) }

// PCSoA is a gathered cell-multipole list in SoA layout: centre of mass,
// mass, and the six raw quadrupole second-moment components. Like a PPSoA it
// is evaluated by one goroutine at a time.
type PCSoA struct {
	X, Y, Z, M             []float64
	XX, YY, ZZ, XY, XZ, YZ []float64

	f32 []float32 // the SIMD kernel's narrowed tile, allocated on first use
}

// Reset empties the list, retaining capacity.
func (s *PCSoA) Reset() {
	s.X, s.Y, s.Z, s.M = s.X[:0], s.Y[:0], s.Z[:0], s.M[:0]
	s.XX, s.YY, s.ZZ = s.XX[:0], s.YY[:0], s.ZZ[:0]
	s.XY, s.XZ, s.YZ = s.XY[:0], s.XZ[:0], s.YZ[:0]
}

// Resize sets the list length to n, keeping capacity (see PPSoA.Resize).
func (s *PCSoA) Resize(n int) {
	s.X, s.Y, s.Z, s.M = growTo(s.X, n), growTo(s.Y, n), growTo(s.Z, n), growTo(s.M, n)
	s.XX, s.YY, s.ZZ = growTo(s.XX, n), growTo(s.YY, n), growTo(s.ZZ, n)
	s.XY, s.XZ, s.YZ = growTo(s.XY, n), growTo(s.XZ, n), growTo(s.YZ, n)
}

// Append adds one cell multipole.
func (s *PCSoA) Append(mp Multipole) {
	s.X = append(s.X, mp.COM.X)
	s.Y = append(s.Y, mp.COM.Y)
	s.Z = append(s.Z, mp.COM.Z)
	s.M = append(s.M, mp.M)
	s.XX = append(s.XX, mp.Quad.XX)
	s.YY = append(s.YY, mp.Quad.YY)
	s.ZZ = append(s.ZZ, mp.Quad.ZZ)
	s.XY = append(s.XY, mp.Quad.XY)
	s.XZ = append(s.XZ, mp.Quad.XZ)
	s.YZ = append(s.YZ, mp.Quad.YZ)
}

// Len returns the number of gathered cells.
func (s *PCSoA) Len() int { return len(s.X) }

// Targets is the per-group target scratch of the batched walk: gathered
// positions plus separate SoA accumulator slices. The walk gathers a group's
// targets once, runs PCBatch/PPBatch against the gathered lists, and scatters
// the accumulators back into the caller's AoS arrays.
type Targets struct {
	X, Y, Z         []float64 // gathered target positions
	AX, AY, AZ, Pot []float64 // per-target accumulators, zeroed by Gather
}

// Gather fills the target slices from pos and zeroes the accumulators.
func (t *Targets) Gather(pos []vec.V3) {
	n := len(pos)
	t.X = growTo(t.X, n)
	t.Y = growTo(t.Y, n)
	t.Z = growTo(t.Z, n)
	t.AX = growTo(t.AX, n)
	t.AY = growTo(t.AY, n)
	t.AZ = growTo(t.AZ, n)
	t.Pot = growTo(t.Pot, n)
	for i, p := range pos {
		t.X[i], t.Y[i], t.Z[i] = p.X, p.Y, p.Z
		t.AX[i], t.AY[i], t.AZ[i], t.Pot[i] = 0, 0, 0, 0
	}
}

// Scatter adds the accumulators into the caller's acc/pot arrays, which must
// be the same length as the gathered target set.
func (t *Targets) Scatter(acc []vec.V3, pot []float64) {
	for i := range acc {
		acc[i].X += t.AX[i]
		acc[i].Y += t.AY[i]
		acc[i].Z += t.AZ[i]
		pot[i] += t.Pot[i]
	}
}

// growTo returns s with length n, reallocating (with a quarter of headroom,
// so a run of slowly growing lists settles in a few steps) only when the
// capacity is short. The elements below the old length are kept, so a list
// can be extended in place.
func growTo(s []float64, n int) []float64 {
	if cap(s) < n {
		return append(make([]float64, 0, n+n/4), s...)[:n]
	}
	return s[:n]
}

// The dispatched batch kernels. Scalar by default; on amd64 hosts with
// AVX2+FMA (and without the noasm build tag) init in dispatch_amd64.go
// repoints them at the wrappers of the assembly kernels.
var (
	ppKernel  = PPBatchScalar
	pcKernel  = PCBatchScalar
	kernelISA = "scalar"
	kernelTol = 1e-12
)

// KernelISA reports the instruction set the dispatched batch kernels run on:
// "avx2+fma" when the assembly path is active, "scalar" for the portable Go
// loops (non-amd64 hosts, hosts without AVX2/FMA, or the noasm build tag).
func KernelISA() string { return kernelISA }

// KernelTol is the bound PPBatch and PCBatch guarantee against the scalar
// reference, for every target of a call and each of its four sums:
//
//	|dispatched − scalar| ≤ KernelTol() · Σ_k (1 + span/R_k) · |c_k|
//
// where |c_k| is the magnitude of source k's contribution (m/R² and m/R for a
// particle; for a cell each multipole term at its largest, |Q| the Frobenius
// norm), R_k the softened distance and span how far the call's targets reach
// from the first of them (the norm of the per-axis maxima). The scalar tier
// differs from the reference in summation order only: 1e-12. The float32 tier
// stores coordinates relative to the first target, so a source's position is
// known to 2⁻²⁴ of its distance plus 2⁻²⁴ of the span, which is what the
// weight says; for the tree walk's compact groups it is near 1 on all but the
// nearest sources. Tests that compare whole force fields computed through
// different call sequences use KernelTol() as the relative rms bound.
func KernelTol() float64 { return kernelTol }

// PPBatch evaluates every target against every gathered source particle,
// accumulating accelerations and specific potentials into ax/ay/az/apot.
// All target slices must share the length of tx. The per-interaction math is
// identical to PP (Plummer softening eps2 = ε²; a source coincident with a
// target contributes zero acceleration and -m/ε potential when eps2 > 0).
// When eps2 == 0 a coincident source contributes nothing at all (the r² == 0
// guard of the scalar loops, which every unsoftened call runs through),
// mirroring AccumulatePP's self-interaction skip rather than producing
// Inf/NaN.
func PPBatch(tx, ty, tz []float64, src *PPSoA, eps2 float64, ax, ay, az, apot []float64) {
	n := len(tx)
	ppKernel(tx, ty[:n], tz[:n], src, eps2, ax[:n], ay[:n], az[:n], apot[:n])
}

// PCBatch evaluates every target against every gathered cell multipole with
// quadrupole corrections, accumulating into ax/ay/az/apot. The math matches
// PC (paper eqs. 1-2) term for term, with the same r² == 0 guard as PPBatch
// (a cell COM exactly on an unsoftened target contributes nothing).
func PCBatch(tx, ty, tz []float64, src *PCSoA, eps2 float64, ax, ay, az, apot []float64) {
	n := len(tx)
	pcKernel(tx, ty[:n], tz[:n], src, eps2, ax[:n], ay[:n], az[:n], apot[:n])
}

// PPBatchScalar is the always-compiled scalar float64 path of PPBatch,
// bypassing SIMD dispatch: the semantic definition the assembly kernels are
// fuzzed against, their fallback, and the baseline BenchmarkKernels measures
// speedups from. The r² == 0 branch (possible only for an exactly coincident
// source with eps2 == 0, or when every difference squares to zero in
// subnormal underflow) zeroes the interaction instead of dividing by zero.
func PPBatchScalar(tx, ty, tz []float64, src *PPSoA, eps2 float64, ax, ay, az, apot []float64) {
	n := len(tx)
	ty, tz, ax, ay, az, apot = ty[:n], tz[:n], ax[:n], ay[:n], az[:n], apot[:n]
	sx := src.X
	sy, sz, sm := src.Y[:len(sx)], src.Z[:len(sx)], src.M[:len(sx)]
	for i := 0; i < n; i++ {
		xi, yi, zi := tx[i], ty[i], tz[i]
		var axi, ayi, azi, poti float64
		for k := 0; k < len(sx); k++ {
			dx := sx[k] - xi
			dy := sy[k] - yi
			dz := sz[k] - zi
			r2 := dx*dx + dy*dy + dz*dz + eps2
			rinv := 0.0
			if r2 != 0 {
				rinv = 1 / math.Sqrt(r2)
			}
			mr := sm[k] * rinv
			mr3 := mr * rinv * rinv
			axi += dx * mr3
			ayi += dy * mr3
			azi += dz * mr3
			poti -= mr
		}
		ax[i] += axi
		ay[i] += ayi
		az[i] += azi
		apot[i] += poti
	}
}

// PCBatchScalar is the always-compiled scalar float64 path of PCBatch, with
// the same r² == 0 guard as PPBatchScalar. Q·dr and dr·(Q·dr) are contracted
// with math.FMA: past separations of ~2^215 rinv⁵ underflows to zero while
// these sums approach overflow, and with separately rounded products one of
// them can overflow where the fused sum stays finite, returning Inf·0 = NaN
// where the fused form returns a finite value.
func PCBatchScalar(tx, ty, tz []float64, src *PCSoA, eps2 float64, ax, ay, az, apot []float64) {
	n := len(tx)
	ty, tz, ax, ay, az, apot = ty[:n], tz[:n], ax[:n], ay[:n], az[:n], apot[:n]
	cx := src.X
	nc := len(cx)
	cy, cz, cm := src.Y[:nc], src.Z[:nc], src.M[:nc]
	qxx, qyy, qzz := src.XX[:nc], src.YY[:nc], src.ZZ[:nc]
	qxy, qxz, qyz := src.XY[:nc], src.XZ[:nc], src.YZ[:nc]
	for i := 0; i < n; i++ {
		xi, yi, zi := tx[i], ty[i], tz[i]
		var axi, ayi, azi, poti float64
		for k := 0; k < nc; k++ {
			dx := cx[k] - xi
			dy := cy[k] - yi
			dz := cz[k] - zi
			r2 := dx*dx + dy*dy + dz*dz + eps2
			rinv := 0.0
			if r2 != 0 {
				rinv = 1 / math.Sqrt(r2)
			}
			rinv2 := rinv * rinv
			rinv3 := rinv2 * rinv
			rinv5 := rinv3 * rinv2
			rinv7 := rinv5 * rinv2

			trQ := qxx[k] + qyy[k] + qzz[k]
			qrx := math.FMA(qxz[k], dz, math.FMA(qxy[k], dy, qxx[k]*dx))
			qry := math.FMA(qyz[k], dz, math.FMA(qyy[k], dy, qxy[k]*dx))
			qrz := math.FMA(qzz[k], dz, math.FMA(qyz[k], dy, qxz[k]*dx))
			rqr := math.FMA(dz, qrz, math.FMA(dy, qry, dx*qrx))

			poti += -cm[k]*rinv + 0.5*trQ*rinv3 - 1.5*rqr*rinv5
			s := cm[k]*rinv3 - 1.5*trQ*rinv5 + 7.5*rqr*rinv7
			q5 := -3 * rinv5
			axi += dx*s + qrx*q5
			ayi += dy*s + qry*q5
			azi += dz*s + qrz*q5
		}
		ax[i] += axi
		ay[i] += ayi
		az[i] += azi
		apot[i] += poti
	}
}

// Gflops returns the effective sustained rate, in Gflop/s, of evaluating the
// counted interactions in the given wall-clock time, under the paper's §VI.A
// 23/65-flop conventions. Zero or negative durations report zero.
func (s Stats) Gflops(elapsed time.Duration) float64 {
	secs := elapsed.Seconds()
	if secs <= 0 {
		return 0
	}
	return s.Flops() / secs / 1e9
}
