//go:build amd64 && !noasm

// SIMD kernel dispatch (DESIGN.md §12): the batched force kernels are
// repointed at the widest tier of the single-precision assembly in
// kernels_avx2_amd64.s that the host CPU and OS support — sixteen lanes on
// AVX-512F, eight on AVX2+FMA. Building with `-tags noasm` removes this file
// (and the .s files) entirely, leaving the scalar float64 reference as the
// only path.
package grav

import "math"

// Implemented in kernels_avx2_amd64.s. The kernels of both widths share one
// signature and one frame; ns is a multiple of the width.
//
//go:noescape
func ppAVX2(tx, ty, tz *float64, nt int, f *frame, src *float32, ns int, ax, ay, az, apot *float64)

//go:noescape
func pcAVX2(tx, ty, tz *float64, nt int, f *frame, src *float32, ns int, ax, ay, az, apot *float64)

//go:noescape
func ppAVX512(tx, ty, tz *float64, nt int, f *frame, src *float32, ns int, ax, ay, az, apot *float64)

//go:noescape
func pcAVX512(tx, ty, tz *float64, nt int, f *frame, src *float32, ns int, ax, ay, az, apot *float64)

//go:noescape
func narrowAVX2(dst *float32, src *float64, n int, origin, scale float64)

//go:noescape
func maxAbsAVX2(x *float64, n int, origin float64) float64

//go:noescape
func boxAVX2(tx, ty, tz *float64, n int, box *[6]float64)

// Implemented in cpuid_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// A tier is one width of the float32 kernels: the name KernelISA reports,
// whether a host with the given CPUID and XCR0 bits can run it, and the batch
// wrappers the dispatch points at.
type tier struct {
	isa       string
	supported func(ecx1, ebx7, xcr0 uint32) bool
	pp        func(tx, ty, tz []float64, src *PPSoA, eps2 float64, ax, ay, az, apot []float64)
	pc        func(tx, ty, tz []float64, src *PCSoA, eps2 float64, ax, ay, az, apot []float64)
}

// tiers lists the float32 tiers widest first.
var tiers = []tier{
	{"avx512f", hasAVX512F, ppBatchAVX512, pcBatchAVX512},
	{"avx2+fma", hasAVX2FMA, ppBatchAVX2, pcBatchAVX2},
}

func init() {
	if t := pickTier(hostBits()); t != nil {
		t.use()
	}
}

// use points the dispatched kernels at t.
func (t *tier) use() {
	ppKernel, pcKernel, kernelISA, kernelTol = t.pp, t.pc, t.isa, tolFloat32
}

// pickTier returns the first tier the bits allow, or nil when the host has
// to run the scalar loops.
func pickTier(ecx1, ebx7, xcr0 uint32) *tier {
	for i := range tiers {
		if tiers[i].supported(ecx1, ebx7, xcr0) {
			return &tiers[i]
		}
	}
	return nil
}

// Feature bits of CPUID leaf 1 ECX, leaf 7 EBX and XCR0.
const (
	cpuidFMA     = 1 << 12
	cpuidOSXSAVE = 1 << 27
	cpuidAVX     = 1 << 28
	cpuidAVX2    = 1 << 5
	cpuidAVX512F = 1 << 16
	xcr0YMM      = 0x06 // XMM and YMM state
	xcr0ZMM      = 0xE6 // and opmask, ZMM0–15 upper halves, ZMM16–31
)

// hostBits reads what pickTier decides on: CPUID leaf 1 ECX, leaf 7 EBX (0
// on a CPU without leaf 7) and the low word of XCR0 (0 unless OSXSAVE says
// XGETBV may be executed).
func hostBits() (ecx1, ebx7, xcr0 uint32) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ = cpuid(1, 0)
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0, _ = xgetbv0()
	}
	return ecx1, ebx7, xcr0
}

// hasAVX2FMA reports whether the eight-lane kernels can run: the CPU must have
// AVX, AVX2 and FMA3, and the OS must have enabled XMM+YMM state saving
// (OSXSAVE + XCR0 bits 1–2), the standard Intel-documented dance.
func hasAVX2FMA(ecx1, ebx7, xcr0 uint32) bool {
	const c1 = cpuidFMA | cpuidOSXSAVE | cpuidAVX
	return ecx1&c1 == c1 && xcr0&xcr0YMM == xcr0YMM && ebx7&cpuidAVX2 != 0
}

// hasAVX512F reports whether the sixteen-lane kernels can run: everything the
// eight-lane ones need (the reduce, the narrowing and the extent pass are
// shared), AVX-512F, and the OS saving the opmask and all 32 ZMM registers
// (XCR0 bits 5–7). The kernels use no instruction outside AVX-512F.
func hasAVX512F(ecx1, ebx7, xcr0 uint32) bool {
	return hasAVX2FMA(ecx1, ebx7, xcr0) && ebx7&cpuidAVX512F != 0 && xcr0&xcr0ZMM == xcr0ZMM
}

// tolFloat32 is KernelTol of the float32 kernels: 160u with u = 2⁻²⁴, the
// largest of the worst-case bounds of the four sums (DESIGN.md §12 has the
// count). Every sum collects 66u from the 64 float32 additions an eight-lane
// kernel's lane makes per tile and the two of the reduce. Per pair, each
// factor 1/R carries 10u + 2u·span/R (r² 4u and the coordinates' share, the
// one-step rsqrt 3.4u, its roundings 2.5u); that makes 12u on a particle's
// potential term, 36u on its acceleration and 93u on the R⁻⁷ term of a
// cell's acceleration, each times 1 + span/R. The sixteen-lane kernels make
// 32 additions per lane and tile plus one more in the fold, and their
// rsqrt carries 0.1u, so the same count bounds them. Random lists of 1–2600
// sources measure 4e-7.
const tolFloat32 = 160 * 0x1p-24

// planeLanes is the tile length: the float32 scratch of a source list holds
// one plane of planeLanes lanes per field (8 kB for PPSoA, 20 kB for PCSoA),
// whatever the list's length, and a longer list is evaluated tile after
// tile. The partial sums are flushed to float64 at the end of each tile, so
// float32 summation error does not grow with the list. PLANE in the assembly
// is planeLanes·4.
const planeLanes = 512

// frame is one call's coordinate frame and normalisation, read by the
// assembly at fixed offsets (F_* in kernels_avx2_amd64.s).
type frame struct {
	ox, oy, oz float64    // origin: the centre of the targets' bounding box
	lscale     float64    // 2^-eL, lengths
	scale      [4]float64 // undo the normalisation on the sums: ax, ay, az, pot
	eps2       float32    // (ε·lscale)²
}

// Range of the float32 path. Normalised, the larger of the list extent and ε
// lies in [½, 1) and the largest mass in [¼, ½), so every r² is in
// [ε², 13], and with ε ≥ minEps no power of 1/r up to the fifth, and no
// product the kernels form from it, leaves the normal float32 range; the
// 2^±300 bounds on the inputs keep every scale factor (at most
// 2^(|eM|+2|eL|+4)) a normal float64.
const (
	minEps   = 0x1p-16 // smallest normalised ε
	maxInput = 0x1p300 // largest extent and mass, and the inverse of the smallest
	maxQuad  = 0x1p10  // largest normalised |Q'| (physical lists stay below ¼)
)

// newFrame sets the origin at the centre of the targets' bounding box — the
// tree walk's targets are one compact group, so the relative coordinates of
// everything near them are small, and no target is farther from the origin
// than half the box's diagonal — and chooses the power-of-two normalisation:
// lengths by the exponent eL of max(extent, ε), where the extent is the
// largest |coordinate − origin| over targets and sources, masses by the
// exponent eM of the largest |mass|, moments (quads, nil for a particle list)
// by both. mscale and qscale are what the sources' masses and moments are
// multiplied by on narrowing. It reports ok = false when the call must take
// the scalar loops instead: a NaN or Inf among the inputs (centre and maxAbs
// return them), ε = 0 or below minEps of the extent, an extent or mass
// outside 2^±300, a moment above maxQuad. Scaling every length by 2^k and
// every mass by 2^j shifts eL and eM and changes nothing else, so the
// decision and the normalised float32 values do not depend on the unit
// system.
func newFrame(tx, ty, tz, sx, sy, sz, sm []float64, quads *[6][]float64, eps2 float64) (f frame, mscale, qscale float64, ok bool) {
	var reach float64
	f.ox, f.oy, f.oz, reach = centre(tx, ty, tz)
	eps := math.Sqrt(eps2)
	ext := max(eps, reach, maxAbs(sx, f.ox), maxAbs(sy, f.oy), maxAbs(sz, f.oz))
	mmax := maxAbs(sm, 0)
	if !(ext >= 1/maxInput && ext <= maxInput && mmax >= 1/maxInput && mmax <= maxInput) {
		return f, 0, 0, false
	}
	eL, eM := exponent(ext), exponent(mmax)
	f.lscale = pow2(-eL)
	eps *= f.lscale
	a := pow2(eM - 2*eL - 2)
	f.scale = [4]float64{a, a, a, pow2(eM - eL)}
	f.eps2 = float32(eps * eps)
	mscale, qscale = pow2(-eM-1), pow2(-eM-2*eL-4)
	ok = eps >= minEps
	if quads != nil {
		for _, q := range quads {
			ok = ok && maxAbs(q, 0)*qscale <= maxQuad
		}
	}
	return f, mscale, qscale, ok
}

// exponent returns e with x in [2^(e-1), 2^e), and pow2 returns 2^e, for
// normal x and 2^e: math.Frexp and math.Ldexp without their special cases.
func exponent(x float64) int { return int(math.Float64bits(x)>>52) - 1022 }
func pow2(e int) float64     { return math.Float64frombits(uint64(1023+e) << 52) }

func maxAbs(x []float64, origin float64) float64 {
	return maxAbsAVX2(&x[0], len(x), origin)
}

// centre returns the centre of the bounding box of the points (tx[i], ty[i],
// tz[i]) and their reach from it, the largest |coordinate − centre| over the
// three axes, or a NaN reach when any coordinate is an Inf or a NaN. The
// reach is taken from the box's faces, so it is exactly the largest of the
// rounded differences the narrowing forms.
func centre(tx, ty, tz []float64) (ox, oy, oz, reach float64) {
	var b [6]float64
	boxAVX2(&tx[0], &ty[0], &tz[0], len(tx), &b)
	var o [3]float64
	for k := range o {
		o[k] = 0.5 * (b[k] + b[k+3])
		reach = max(reach, b[k+3]-o[k], o[k]-b[k])
	}
	return o[0], o[1], o[2], reach
}

// narrowTile fills plane k of scratch with float32((src[i] − origin)·scale)
// and pads it with zeros to the next multiple of lanes: a zero-mass,
// zero-moment source at the origin, which contributes exactly nothing. It
// returns the padded length.
func narrowTile(scratch []float32, k int, src []float64, origin, scale float64, lanes int) int {
	p := scratch[k*planeLanes : (k+1)*planeLanes]
	narrowAVX2(&p[0], &src[0], len(src), origin, scale)
	n := (len(src) + lanes - 1) &^ (lanes - 1)
	clear(p[len(src):n])
	return n
}

func ppBatchAVX2(tx, ty, tz []float64, src *PPSoA, eps2 float64, ax, ay, az, apot []float64) {
	ppBatchF32(8, tx, ty, tz, src, eps2, ax, ay, az, apot)
}

func ppBatchAVX512(tx, ty, tz []float64, src *PPSoA, eps2 float64, ax, ay, az, apot []float64) {
	ppBatchF32(16, tx, ty, tz, src, eps2, ax, ay, az, apot)
}

// ppBatchF32 evaluates the list in float32 on the kernel of the given width
// (8 or 16 lanes), a tile of planeLanes sources at a time, or hands the call
// to the scalar loops when newFrame rejects it.
func ppBatchF32(lanes int, tx, ty, tz []float64, src *PPSoA, eps2 float64, ax, ay, az, apot []float64) {
	nt, ns := len(tx), src.Len()
	if nt == 0 || ns == 0 {
		return
	}
	f, mscale, _, ok := newFrame(tx, ty, tz, src.X, src.Y, src.Z, src.M, nil, eps2)
	if !ok {
		PPBatchScalar(tx, ty, tz, src, eps2, ax, ay, az, apot)
		return
	}
	if src.f32 == nil {
		src.f32 = make([]float32, 4*planeLanes)
	}
	for lo := 0; lo < ns; lo += planeLanes {
		hi := min(lo+planeLanes, ns)
		narrowTile(src.f32, 0, src.X[lo:hi], f.ox, f.lscale, lanes)
		narrowTile(src.f32, 1, src.Y[lo:hi], f.oy, f.lscale, lanes)
		narrowTile(src.f32, 2, src.Z[lo:hi], f.oz, f.lscale, lanes)
		n := narrowTile(src.f32, 3, src.M[lo:hi], 0, mscale, lanes)
		if lanes == 16 {
			ppAVX512(&tx[0], &ty[0], &tz[0], nt, &f, &src.f32[0], n, &ax[0], &ay[0], &az[0], &apot[0])
		} else {
			ppAVX2(&tx[0], &ty[0], &tz[0], nt, &f, &src.f32[0], n, &ax[0], &ay[0], &az[0], &apot[0])
		}
	}
}

// moments returns the six moment slices in the order of the scratch planes.
func (s *PCSoA) moments() [6][]float64 {
	return [6][]float64{s.XX, s.YY, s.ZZ, s.XY, s.XZ, s.YZ}
}

func pcBatchAVX2(tx, ty, tz []float64, src *PCSoA, eps2 float64, ax, ay, az, apot []float64) {
	pcBatchF32(8, tx, ty, tz, src, eps2, ax, ay, az, apot)
}

func pcBatchAVX512(tx, ty, tz []float64, src *PCSoA, eps2 float64, ax, ay, az, apot []float64) {
	pcBatchF32(16, tx, ty, tz, src, eps2, ax, ay, az, apot)
}

// pcBatchF32 is ppBatchF32 for the cell list.
func pcBatchF32(lanes int, tx, ty, tz []float64, src *PCSoA, eps2 float64, ax, ay, az, apot []float64) {
	nt, ns := len(tx), src.Len()
	if nt == 0 || ns == 0 {
		return
	}
	quads := src.moments()
	f, mscale, qscale, ok := newFrame(tx, ty, tz, src.X, src.Y, src.Z, src.M, &quads, eps2)
	if !ok {
		PCBatchScalar(tx, ty, tz, src, eps2, ax, ay, az, apot)
		return
	}
	if src.f32 == nil {
		src.f32 = make([]float32, 10*planeLanes)
	}
	for lo := 0; lo < ns; lo += planeLanes {
		hi := min(lo+planeLanes, ns)
		narrowTile(src.f32, 0, src.X[lo:hi], f.ox, f.lscale, lanes)
		narrowTile(src.f32, 1, src.Y[lo:hi], f.oy, f.lscale, lanes)
		narrowTile(src.f32, 2, src.Z[lo:hi], f.oz, f.lscale, lanes)
		n := narrowTile(src.f32, 3, src.M[lo:hi], 0, mscale, lanes)
		for k, q := range quads {
			narrowTile(src.f32, 4+k, q[lo:hi], 0, qscale, lanes)
		}
		if lanes == 16 {
			pcAVX512(&tx[0], &ty[0], &tz[0], nt, &f, &src.f32[0], n, &ax[0], &ay[0], &az[0], &apot[0])
		} else {
			pcAVX2(&tx[0], &ty[0], &tz[0], nt, &f, &src.f32[0], n, &ax[0], &ay[0], &az[0], &apot[0])
		}
	}
}
