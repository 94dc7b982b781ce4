package grav

import (
	"math"
	"math/rand"
	"testing"

	"bonsai/internal/vec"
)

// FuzzKernelEquivalence drives the dispatched batch kernels (the AVX2+FMA
// assembly on capable hosts, the scalar loop elsewhere) against the
// always-compiled scalar reference: random target/source clouds covering
// every lane-remainder length (ns ≡ 0..3 mod 4), eps2 = 0, deliberately
// coincident sources, signed zeros, and large-magnitude positions scaled up
// to past the r² overflow threshold (and, before that, past the scale where
// the quadrupole's dr·(Q·dr) nears overflow against an underflowed rinv⁵).
//
// Agreement criterion: per accumulator, |simd−scalar| ≤ 1e-12·(1 + Σ|contrib|),
// where Σ|contrib| is the sum of per-interaction contribution magnitudes. The
// SIMD path sums four lanes independently before a horizontal reduce, so its
// rounding differs from the scalar left-to-right order; normalizing by the
// accumulated magnitude (rather than the possibly-cancelled final value)
// makes 1e-12 a sound bound for any summation order. Non-finite results must
// agree in kind (both NaN, or both the same infinity).
func FuzzKernelEquivalence(f *testing.F) {
	// Seeds cover: all four remainder classes for both kernels, empty lists,
	// unsoftened coincident sources, tiny and huge coordinate scales.
	f.Add(int64(1), uint16(8), uint16(16), uint8(1), int8(0), false)
	f.Add(int64(2), uint16(3), uint16(5), uint8(0), int8(0), true)
	f.Add(int64(3), uint16(1), uint16(6), uint8(0), int8(0), true)
	f.Add(int64(4), uint16(5), uint16(7), uint8(2), int8(4), false)
	f.Add(int64(5), uint16(2), uint16(0), uint8(1), int8(0), false)
	f.Add(int64(6), uint16(0), uint16(9), uint8(1), int8(0), false)
	f.Add(int64(7), uint16(7), uint16(129), uint8(0), int8(120), true)
	f.Add(int64(8), uint16(4), uint16(130), uint8(3), int8(-120), true)
	f.Add(int64(9), uint16(6), uint16(131), uint8(0), int8(127), false)
	f.Add(int64(10), uint16(9), uint16(132), uint8(2), int8(-128), true)
	// Scale 2^256 and up, unsoftened, ns ≡ 3 (mod 4): dr·(Q·dr) sits at the
	// overflow threshold where rinv⁵ has underflowed, in the SIMD blocks and
	// in the scalar remainder lanes.
	f.Add(int64(89), uint16(80), uint16(7), uint8(0), int8(64), false)
	f.Add(int64(11), uint16(32), uint16(3), uint8(0), int8(66), true)
	f.Add(int64(12), uint16(14), uint16(135), uint8(0), int8(90), false)
	// Lists long enough (ns ≥ 32) for ppAVX2's Newton loop, around the bounds
	// ppNewtonOK keeps it inside: scale 2^-500…2^-512 unsoftened (subnormal
	// r², where an unguarded float32 seed is +Inf and PP.pot comes back ±Inf
	// or NaN) …
	f.Add(int64(13), uint16(9), uint16(64), uint8(0), int8(-125), false)
	f.Add(int64(14), uint16(17), uint16(37), uint8(0), int8(-127), true)
	f.Add(int64(15), uint16(32), uint16(130), uint8(0), int8(-128), false)
	// … ε² = 1e-4 at scale 2^60, where r² straddles 2^120 inside one list
	// (exact loop, by the extent bound) …
	f.Add(int64(16), uint16(9), uint16(64), uint8(1), int8(15), false)
	f.Add(int64(17), uint16(33), uint16(258), uint8(1), int8(15), true)
	// … and ε² = 1 at the same scale, and at 2^56, the largest scale that
	// still takes the Newton loop.
	f.Add(int64(18), uint16(12), uint16(71), uint8(2), int8(15), false)
	f.Add(int64(19), uint16(12), uint16(96), uint8(2), int8(14), true)
	f.Fuzz(func(t *testing.T, seed int64, ntRaw, nsRaw uint16, eps2Sel uint8, scaleExp int8, coincide bool) {
		nt := int(ntRaw % 33)
		ns := int(nsRaw % 259)
		eps2 := [4]float64{0, 1e-4, 1, 1e300}[eps2Sel%4]
		// ±4·scaleExp spans 2^-512 (flushes every position to zero — all
		// sources coincident) through 2^508 (r² overflows to +Inf, which the
		// kernels must turn into a zero contribution, not NaN).
		scale := math.Ldexp(1, int(scaleExp)*4)
		rng := rand.New(rand.NewSource(seed))
		coord := func() float64 { return scale * rng.NormFloat64() }

		tx := make([]float64, nt)
		ty := make([]float64, nt)
		tz := make([]float64, nt)
		for i := range tx {
			tx[i], ty[i], tz[i] = coord(), coord(), coord()
		}
		var pp PPSoA
		var pc PCSoA
		for k := 0; k < ns; k++ {
			x, y, z := coord(), coord(), coord()
			if coincide && nt > 0 && k%5 == 0 {
				i := k % nt
				x, y, z = tx[i], ty[i], tz[i] // exactly coincident source lane
			}
			m := rng.Float64()
			pp.Append(vec.V3{X: x, Y: y, Z: z}, m)
			d := 0.5 * scale
			pc.Append(Multipole{
				COM: vec.V3{X: x, Y: y, Z: z}, M: m,
				Quad: vec.Outer(m, vec.V3{
					X: d * rng.NormFloat64(), Y: d * rng.NormFloat64(), Z: d * rng.NormFloat64(),
				}),
			})
		}

		seedAcc := make([]float64, nt)
		for i := range seedAcc {
			seedAcc[i] = rng.NormFloat64()
		}
		newAcc := func() []float64 { return append([]float64(nil), seedAcc...) }

		// p-p: dispatched vs scalar reference.
		ax, ay, az, apot := newAcc(), newAcc(), newAcc(), newAcc()
		wx, wy, wz, wpot := newAcc(), newAcc(), newAcc(), newAcc()
		PPBatch(tx, ty, tz, &pp, eps2, ax, ay, az, apot)
		PPBatchScalar(tx, ty, tz, &pp, eps2, wx, wy, wz, wpot)
		for i := 0; i < nt; i++ {
			nx, nyv, nz, np := ppAbsNorm(tx[i], ty[i], tz[i], &pp, eps2)
			checkLane(t, "PP.ax", i, ax[i], wx[i], nx)
			checkLane(t, "PP.ay", i, ay[i], wy[i], nyv)
			checkLane(t, "PP.az", i, az[i], wz[i], nz)
			checkLane(t, "PP.pot", i, apot[i], wpot[i], np)
		}

		// p-c: dispatched vs scalar reference.
		ax, ay, az, apot = newAcc(), newAcc(), newAcc(), newAcc()
		wx, wy, wz, wpot = newAcc(), newAcc(), newAcc(), newAcc()
		PCBatch(tx, ty, tz, &pc, eps2, ax, ay, az, apot)
		PCBatchScalar(tx, ty, tz, &pc, eps2, wx, wy, wz, wpot)
		for i := 0; i < nt; i++ {
			nx, nyv, nz, np := pcAbsNorm(tx[i], ty[i], tz[i], &pc, eps2)
			checkLane(t, "PC.ax", i, ax[i], wx[i], nx)
			checkLane(t, "PC.ay", i, ay[i], wy[i], nyv)
			checkLane(t, "PC.az", i, az[i], wz[i], nz)
			checkLane(t, "PC.pot", i, apot[i], wpot[i], np)
		}
	})
}

// checkLane asserts one accumulator lane agrees to 1e-12 relative to the
// accumulated contribution magnitude norm. Non-finite lanes must agree in
// kind; a non-finite norm means some contribution overflowed, in which case
// the sums themselves are non-finite and the kind check is the whole test.
func checkLane(t *testing.T, what string, i int, got, want, norm float64) {
	t.Helper()
	if math.IsNaN(want) || math.IsNaN(got) {
		if math.IsNaN(want) != math.IsNaN(got) {
			t.Fatalf("%s target %d: NaN mismatch: simd=%v scalar=%v", what, i, got, want)
		}
		return
	}
	if math.IsInf(want, 0) || math.IsInf(got, 0) {
		if got != want {
			t.Fatalf("%s target %d: infinity mismatch: simd=%v scalar=%v", what, i, got, want)
		}
		return
	}
	if !(norm < math.Inf(1)) {
		return
	}
	if math.Abs(got-want) > 1e-12*(1+norm) {
		t.Fatalf("%s target %d: simd=%v scalar=%v (|Δ|=%v, norm=%v)",
			what, i, got, want, math.Abs(got-want), norm)
	}
}

// ppAbsNorm accumulates the absolute values of every per-interaction p-p
// contribution onto one target, with the same guarded math as the kernels.
func ppAbsNorm(xi, yi, zi float64, src *PPSoA, eps2 float64) (nx, ny, nz, npot float64) {
	for k := range src.X {
		dx := src.X[k] - xi
		dy := src.Y[k] - yi
		dz := src.Z[k] - zi
		r2 := dx*dx + dy*dy + dz*dz + eps2
		rinv := 0.0
		if r2 != 0 {
			rinv = 1 / math.Sqrt(r2)
		}
		mr := src.M[k] * rinv
		mr3 := mr * rinv * rinv
		nx += math.Abs(dx * mr3)
		ny += math.Abs(dy * mr3)
		nz += math.Abs(dz * mr3)
		npot += math.Abs(mr)
	}
	return
}

// pcAbsNorm is ppAbsNorm for the p-c kernel: absolute values of each cell's
// acceleration and potential terms.
func pcAbsNorm(xi, yi, zi float64, src *PCSoA, eps2 float64) (nx, ny, nz, npot float64) {
	for k := range src.X {
		dx := src.X[k] - xi
		dy := src.Y[k] - yi
		dz := src.Z[k] - zi
		r2 := dx*dx + dy*dy + dz*dz + eps2
		rinv := 0.0
		if r2 != 0 {
			rinv = 1 / math.Sqrt(r2)
		}
		rinv2 := rinv * rinv
		rinv3 := rinv2 * rinv
		rinv5 := rinv3 * rinv2
		rinv7 := rinv5 * rinv2
		trQ := src.XX[k] + src.YY[k] + src.ZZ[k]
		qrx := src.XX[k]*dx + src.XY[k]*dy + src.XZ[k]*dz
		qry := src.XY[k]*dx + src.YY[k]*dy + src.YZ[k]*dz
		qrz := src.XZ[k]*dx + src.YZ[k]*dy + src.ZZ[k]*dz
		rqr := dx*qrx + dy*qry + dz*qrz
		npot += math.Abs(src.M[k]*rinv) + math.Abs(0.5*trQ*rinv3) + math.Abs(1.5*rqr*rinv5)
		s := math.Abs(src.M[k]*rinv3) + math.Abs(1.5*trQ*rinv5) + math.Abs(7.5*rqr*rinv7)
		q5 := 3 * rinv5
		nx += math.Abs(dx)*s + math.Abs(qrx)*q5
		ny += math.Abs(dy)*s + math.Abs(qry)*q5
		nz += math.Abs(dz)*s + math.Abs(qrz)*q5
	}
	return
}
