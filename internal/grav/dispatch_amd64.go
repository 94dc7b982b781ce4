//go:build amd64 && !noasm

// SIMD kernel dispatch (DESIGN.md §12): when the host CPU reports AVX2, FMA3,
// and OS-enabled YMM state, the batched force kernels are repointed at the
// hand-written assembly in kernels_avx2_amd64.s. The assembly covers full
// 4-lane source blocks; the 1-3 remainder lanes of a gathered list run
// through the scalar reference loop, so every list length n ≡ 0..3 (mod 4)
// is exact. Building with `-tags noasm` removes this file (and the .s files)
// entirely, leaving the scalar reference as the only path.
package grav

import "math"

// Implemented in kernels_avx2_amd64.s.
//
//go:noescape
func ppAVX2(tx, ty, tz *float64, nt int, sx, sy, sz, sm *float64, ns int,
	eps2 float64, ax, ay, az, apot *float64, newton bool)

//go:noescape
func maxAbs3AVX2(x, y, z *float64, n int) float64

//go:noescape
func pcAVX2(tx, ty, tz *float64, nt int,
	cx, cy, cz, cm, qxx, qyy, qzz, qxy, qxz, qyz *float64, ns int,
	eps2 float64, ax, ay, az, apot *float64)

// Implemented in cpuid_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

func init() {
	if cpuSupportsAVX2FMA() {
		ppKernel = ppBatchAVX2
		pcKernel = pcBatchAVX2
		kernelISA = "avx2+fma"
	}
}

// cpuSupportsAVX2FMA reports whether the AVX2 kernels can run: the CPU must
// have AVX, AVX2, and FMA3, and the OS must have enabled XMM+YMM state saving
// (OSXSAVE + XCR0 bits 1-2), the standard Intel-documented dance.
func cpuSupportsAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 { // XCR0: XMM and YMM state enabled by the OS
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0 // AVX2
}

// ppBatchAVX2 runs the assembly p-p kernel over the full 4-lane blocks of
// the source list and the scalar reference over the remainder lanes.
func ppBatchAVX2(tx, ty, tz, sx, sy, sz, sm []float64, eps2 float64, ax, ay, az, apot []float64) {
	nt := len(tx)
	ns := len(sx)
	nv := ns &^ 3
	if nt > 0 && nv > 0 {
		ppAVX2(&tx[0], &ty[0], &tz[0], nt, &sx[0], &sy[0], &sz[0], &sm[0], nv,
			eps2, &ax[0], &ay[0], &az[0], &apot[0],
			ppNewtonOK(tx, ty, tz, sx[:nv], sy[:nv], sz[:nv], eps2))
	}
	if ns > nv {
		ppBatchScalar(tx, ty, tz, sx[nv:], sy[nv:], sz[nv:], sm[nv:], eps2, ax, ay, az, apot)
	}
}

// The Newton loop of ppAVX2 seeds 1/√r² from a float32 VRSQRTPS, which is
// only valid while r² is a normal float32; these bounds keep a wide margin
// inside that range (2⁻¹²⁶ … 2¹²⁸).
const (
	newtonR2Min = 0x1p-120
	newtonR2Max = 0x1p120
	// On short lists the ~95-cycle Newton dependency chain per target is not
	// hidden and the divider loop is faster (measured crossover 12–20 sources).
	newtonMinLanes = 32
)

// ppNewtonOK reports whether every r² = |s−t|² + ε² of the call provably
// lies in [newtonR2Min, newtonR2Max], so ppAVX2 may take its Newton loop:
// r² ≥ ε² bounds it below and 3·(max|s| + max|t|)² + ε² above. Everything
// else — ε² = 0, subnormal or overflowing separations, Inf coordinates,
// short lists — keeps the exact VSQRTPD/VDIVPD loop. Each comparison is
// written so a NaN operand makes it false.
func ppNewtonOK(tx, ty, tz, sx, sy, sz []float64, eps2 float64) bool {
	if len(sx) < newtonMinLanes || !(eps2 >= newtonR2Min && eps2 <= newtonR2Max) {
		return false
	}
	d := maxAbs3(sx, sy, sz) + maxAbs3(tx, ty, tz)
	return 3*d*d+eps2 <= newtonR2Max
}

// maxAbs3 returns the largest |v| over three equal-length coordinate
// slices, skipping NaNs (a NaN coordinate poisons its lanes identically in
// both loops, so it need not pick one).
func maxAbs3(x, y, z []float64) float64 {
	n := len(x) &^ 3
	m := 0.0
	if n > 0 {
		m = maxAbs3AVX2(&x[0], &y[0], &z[0], n)
	}
	for i := n; i < len(x); i++ {
		for _, v := range [3]float64{x[i], y[i], z[i]} {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
	}
	return m
}

// pcBatchAVX2 runs the assembly p-c kernel over the full 4-lane blocks of
// the cell list and the scalar reference over the remainder lanes.
func pcBatchAVX2(tx, ty, tz, cx, cy, cz, cm, qxx, qyy, qzz, qxy, qxz, qyz []float64,
	eps2 float64, ax, ay, az, apot []float64) {
	nt := len(tx)
	ns := len(cx)
	nv := ns &^ 3
	if nt > 0 && nv > 0 {
		pcAVX2(&tx[0], &ty[0], &tz[0], nt,
			&cx[0], &cy[0], &cz[0], &cm[0],
			&qxx[0], &qyy[0], &qzz[0], &qxy[0], &qxz[0], &qyz[0], nv,
			eps2, &ax[0], &ay[0], &az[0], &apot[0])
	}
	if ns > nv {
		pcBatchScalar(tx, ty, tz, cx[nv:], cy[nv:], cz[nv:], cm[nv:],
			qxx[nv:], qyy[nv:], qzz[nv:], qxy[nv:], qxz[nv:], qyz[nv:],
			eps2, ax, ay, az, apot)
	}
}
