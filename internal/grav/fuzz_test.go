package grav

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"bonsai/internal/vec"
)

// kernelCase is one evaluation both kernel tiers are given.
type kernelCase struct {
	tx, ty, tz []float64
	pp         PPSoA
	pc         PCSoA
	eps2       float64
}

// scaled returns c with every length multiplied by 2^k and every mass by 2^j.
func (c *kernelCase) scaled(k, j int) *kernelCase {
	mul := func(x []float64, e int) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = math.Ldexp(v, e)
		}
		return out
	}
	s := &kernelCase{tx: mul(c.tx, k), ty: mul(c.ty, k), tz: mul(c.tz, k), eps2: math.Ldexp(c.eps2, 2*k)}
	s.pp = PPSoA{X: mul(c.pp.X, k), Y: mul(c.pp.Y, k), Z: mul(c.pp.Z, k), M: mul(c.pp.M, j)}
	s.pc = PCSoA{X: mul(c.pc.X, k), Y: mul(c.pc.Y, k), Z: mul(c.pc.Z, k), M: mul(c.pc.M, j),
		XX: mul(c.pc.XX, j+2*k), YY: mul(c.pc.YY, j+2*k), ZZ: mul(c.pc.ZZ, j+2*k),
		XY: mul(c.pc.XY, j+2*k), XZ: mul(c.pc.XZ, j+2*k), YZ: mul(c.pc.YZ, j+2*k)}
	return s
}

// sums holds the four accumulators of one evaluation.
type sums [4][]float64

// eval runs one p-p and one p-c evaluation of c, each into accumulators that
// start as copies of seed.
func (c *kernelCase) eval(seed []float64,
	pp func(tx, ty, tz []float64, src *PPSoA, eps2 float64, ax, ay, az, apot []float64),
	pc func(tx, ty, tz []float64, src *PCSoA, eps2 float64, ax, ay, az, apot []float64)) (rpp, rpc sums) {
	for i := range rpp {
		rpp[i] = append([]float64(nil), seed...)
		rpc[i] = append([]float64(nil), seed...)
	}
	pp(c.tx, c.ty, c.tz, &c.pp, c.eps2, rpp[0], rpp[1], rpp[2], rpp[3])
	pc(c.tx, c.ty, c.tz, &c.pc, c.eps2, rpc[0], rpc[1], rpc[2], rpc[3])
	return rpp, rpc
}

var sumNames = [4]string{"ax", "ay", "az", "pot"}

// checkAgainstScalar holds the dispatched kernels to their contract on c:
// a call the float32 path does not take must equal the scalar loops bit for
// bit (every call, on the scalar tier); one it takes must agree with them to
// KernelTol, if compare is set.
func checkAgainstScalar(t *testing.T, c *kernelCase, seed []float64, compare bool) {
	t.Helper()
	gpp, gpc := c.eval(seed, PPBatch, PCBatch)
	wpp, wpc := c.eval(seed, PPBatchScalar, PCBatchScalar)
	ppF32, pcF32 := takesFloat32(c)
	span := kernelSpan(c.tx, c.ty, c.tz)
	for i := range c.tx {
		nacc, npot := ppNorm(c.tx[i], c.ty[i], c.tz[i], &c.pp, c.eps2, span)
		qacc, qpot := pcNorm(c.tx[i], c.ty[i], c.tz[i], &c.pc, c.eps2, span)
		for s, name := range sumNames {
			na, qa := nacc, qacc
			if s == 3 {
				na, qa = npot, qpot
			}
			checkLane(t, "PP."+name, i, gpp[s][i], wpp[s][i], na, ppF32, compare)
			checkLane(t, "PC."+name, i, gpc[s][i], wpc[s][i], qa, pcF32, compare)
		}
	}
}

// checkLane is one accumulator of checkAgainstScalar. The float64 addition
// into the seeded accumulator may round differently on the two sides, which
// the second term of the tolerance covers; a non-finite norm means some
// contribution overflowed in float64, and nothing is asserted.
func checkLane(t *testing.T, what string, i int, got, want, norm float64, f32, compare bool) {
	t.Helper()
	if !f32 {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s %s target %d: call outside the float32 range: dispatched=%v scalar=%v, want bitwise equal", KernelISA(), what, i, got, want)
		}
		return
	}
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("%s %s target %d: float32 path returned %v (scalar %v)", KernelISA(), what, i, got, want)
	}
	if !compare || !(norm < math.Inf(1)) {
		return
	}
	if d := math.Abs(got - want); d > KernelTol()*norm+1e-15*(1+math.Abs(want)) {
		t.Fatalf("%s %s target %d: dispatched=%v scalar=%v: |Δ|=%.3g is %.3g of the weighted norm %.3g, KernelTol %.3g",
			KernelISA(), what, i, got, want, d, d/norm, norm, KernelTol())
	}
}

// FuzzKernelEquivalence drives the dispatched batch kernels, on every tier
// the host supports (the float32 assembly at sixteen and at eight lanes, the
// scalar loops on hosts with neither), against the always-compiled scalar
// float64 reference: random target/source clouds
// covering every lane-remainder length and the tile boundary, eps2 = 0 and
// eps2 on both sides of the float32 path's ε bound, deliberately coincident
// sources, an Inf followed by a NaN, and coordinate scales from 2^-512 (every
// position flushes to zero) to 2^508 (r² overflows). Three properties:
//
//  1. A call the float32 path does not take (takesFloat32, always false on
//     the scalar tier) returns the scalar loops' results bit for bit.
//  2. A call it takes agrees with them to KernelTol against the weighted
//     contribution norm KernelTol documents (ppNorm, pcNorm). This is checked
//     at scales within 2^±140 only: beyond, the reference's own rinv⁷ leaves
//     the float64 range, which the normalised float32 kernel does not.
//  3. Scaling every length by 2^k and every mass by 2^j of a call it takes
//     (|k|, |j| ≤ 200) keeps it on the float32 path and scales the results
//     exactly: the path and its rounding do not depend on the unit system.
func FuzzKernelEquivalence(f *testing.F) {
	const coincide, poison = 1, 2 // flags
	// Every lane-remainder class and the empty lists.
	f.Add(int64(1), uint16(8), uint16(16), uint8(1), int8(0), uint8(0), int16(0), int16(0))
	f.Add(int64(2), uint16(3), uint16(5), uint8(0), int8(0), uint8(coincide), int16(0), int16(0))
	f.Add(int64(3), uint16(1), uint16(6), uint8(0), int8(0), uint8(coincide), int16(0), int16(0))
	f.Add(int64(4), uint16(5), uint16(7), uint8(2), int8(4), uint8(0), int16(3), int16(-7))
	f.Add(int64(5), uint16(2), uint16(0), uint8(1), int8(0), uint8(0), int16(0), int16(0))
	f.Add(int64(6), uint16(0), uint16(9), uint8(1), int8(0), uint8(0), int16(0), int16(0))
	// A one-source and a nine-source list (one padded block, two blocks),
	// and lists across the 512-lane tile boundary.
	f.Add(int64(20), uint16(7), uint16(1), uint8(1), int8(0), uint8(0), int16(-200), int16(200))
	f.Add(int64(21), uint16(7), uint16(9), uint8(1), int8(0), uint8(coincide), int16(200), int16(-200))
	f.Add(int64(22), uint16(9), uint16(512), uint8(2), int8(0), uint8(0), int16(17), int16(5))
	f.Add(int64(23), uint16(9), uint16(513), uint8(1), int8(1), uint8(coincide), int16(-60), int16(90))
	f.Add(int64(24), uint16(33), uint16(1300), uint8(1), int8(-1), uint8(0), int16(0), int16(0))
	// A galaxy in CGS units as the scaled variant: lengths × 2^75 (3.8e22 cm
	// is 12 kpc), masses × 2^110 (1.3e33 g), ε 1% of the unit length.
	f.Add(int64(25), uint16(9), uint16(64), uint8(1), int8(0), uint8(0), int16(75), int16(110))
	// ε on the accepted and on the rejected side of minEps (selectors 4, 5).
	f.Add(int64(26), uint16(9), uint16(64), uint8(4), int8(0), uint8(0), int16(40), int16(0))
	f.Add(int64(27), uint16(9), uint16(64), uint8(5), int8(0), uint8(0), int16(40), int16(0))
	f.Add(int64(28), uint16(9), uint16(70), uint8(4), int8(20), uint8(coincide), int16(-40), int16(3))
	f.Add(int64(29), uint16(9), uint16(70), uint8(5), int8(-20), uint8(coincide), int16(0), int16(0))
	// An Inf and then a NaN among the coordinates.
	f.Add(int64(30), uint16(9), uint16(64), uint8(1), int8(0), uint8(poison), int16(0), int16(0))
	f.Add(int64(31), uint16(5), uint16(11), uint8(2), int8(0), uint8(poison|coincide), int16(0), int16(0))
	// Tiny and huge scales, ε² = 1e300, and the scales at which dr·(Q·dr)
	// nears overflow against an underflowed rinv⁵ in the scalar loop: all
	// outside the float32 range, all bitwise.
	f.Add(int64(7), uint16(7), uint16(129), uint8(0), int8(120), uint8(coincide), int16(0), int16(0))
	f.Add(int64(8), uint16(4), uint16(130), uint8(3), int8(-120), uint8(coincide), int16(0), int16(0))
	f.Add(int64(9), uint16(6), uint16(131), uint8(0), int8(127), uint8(0), int16(0), int16(0))
	f.Add(int64(10), uint16(9), uint16(132), uint8(2), int8(-128), uint8(coincide), int16(0), int16(0))
	f.Add(int64(89), uint16(80), uint16(7), uint8(0), int8(64), uint8(0), int16(0), int16(0))
	f.Add(int64(12), uint16(14), uint16(135), uint8(0), int8(90), uint8(0), int16(0), int16(0))
	// ε² = 1e-4 and 1 at scale 2^60 (rejected: ε below minEps of the extent)
	// and ε² = 1 at 2^-60 (accepted: ε is the extent).
	f.Add(int64(16), uint16(9), uint16(64), uint8(1), int8(15), uint8(0), int16(0), int16(0))
	f.Add(int64(18), uint16(12), uint16(71), uint8(2), int8(15), uint8(0), int16(0), int16(0))
	f.Add(int64(19), uint16(12), uint16(96), uint8(2), int8(-15), uint8(coincide), int16(100), int16(100))
	f.Fuzz(func(t *testing.T, seed int64, ntRaw, nsRaw uint16, eps2Sel uint8, scaleExp int8, flags uint8, kRaw, jRaw int16) {
		nt := int(ntRaw % 34)
		ns := int(nsRaw % 1301)
		// ±4·scaleExp spans 2^-512 through 2^508.
		scale := math.Ldexp(1, int(scaleExp)*4)
		// The last two are ε = 2^-13 and 2^-16 of the coordinate scale; the
		// cloud's extent is 2 to 8 of it, so they straddle minEps.
		eps2 := [6]float64{0, 1e-4, 1, 1e300, 0x1p-26 * scale * scale, 0x1p-32 * scale * scale}[eps2Sel%6]
		rng := rand.New(rand.NewSource(seed))
		coord := func() float64 { return scale * rng.NormFloat64() }

		c := &kernelCase{eps2: eps2, tx: make([]float64, nt), ty: make([]float64, nt), tz: make([]float64, nt)}
		for i := range c.tx {
			c.tx[i], c.ty[i], c.tz[i] = coord(), coord(), coord()
		}
		for k := 0; k < ns; k++ {
			x, y, z := coord(), coord(), coord()
			if flags&coincide != 0 && nt > 0 && k%5 == 0 {
				i := k % nt
				x, y, z = c.tx[i], c.ty[i], c.tz[i] // exactly coincident source lane
			}
			m := rng.Float64()
			c.pp.Append(vec.V3{X: x, Y: y, Z: z}, m)
			d := 0.5 * scale
			c.pc.Append(Multipole{
				COM: vec.V3{X: x, Y: y, Z: z}, M: m,
				Quad: vec.Outer(m, vec.V3{
					X: d * rng.NormFloat64(), Y: d * rng.NormFloat64(), Z: d * rng.NormFloat64(),
				}),
			})
		}
		if flags&poison != 0 && ns > 10 && nt > 4 {
			c.pp.X[2], c.pp.X[10] = math.Inf(-1), math.NaN()
			c.pc.Y[2], c.pc.Y[10] = math.Inf(1), math.NaN()
			c.tz[4] = math.NaN()
		}
		seedAcc := make([]float64, nt)
		for i := range seedAcc {
			seedAcc[i] = rng.NormFloat64()
		}
		forEachTier(func() {
			checkAgainstScalar(t, c, seedAcc, math.Abs(4*float64(scaleExp)) <= 140)

			// Property 3, where both calls are well inside the 2^±300 window.
			k, j := int(kRaw)%201, int(jRaw)%201
			if e := 4 * int(scaleExp); e < -280 || e > 280 || e+k < -280 || e+k > 280 {
				return
			}
			ppF32, pcF32 := takesFloat32(c)
			sc := c.scaled(k, j)
			if sp, sq := takesFloat32(sc); ppF32 && !sp || pcF32 && !sq {
				t.Fatalf("%s: float32 path taken (pp %v, pc %v) but (pp %v, pc %v) after scaling lengths by 2^%d and masses by 2^%d",
					KernelISA(), ppF32, pcF32, sp, sq, k, j)
			}
			zero := make([]float64, nt)
			bpp, bpc := c.eval(zero, PPBatch, PCBatch)
			spp, spc := sc.eval(zero, PPBatch, PCBatch)
			for s, name := range sumNames {
				e := j - 2*k // accelerations: mass / length²
				if s == 3 {
					e = j - k // potential: mass / length
				}
				for i := 0; i < nt; i++ {
					if want := math.Ldexp(bpp[s][i], e); ppF32 && spp[s][i] != want {
						t.Fatalf("%s PP.%s target %d: %v after scaling by (2^%d, 2^%d), want exactly %v", KernelISA(), name, i, spp[s][i], k, j, want)
					}
					if want := math.Ldexp(bpc[s][i], e); pcF32 && spc[s][i] != want {
						t.Fatalf("%s PC.%s target %d: %v after scaling by (2^%d, 2^%d), want exactly %v", KernelISA(), name, i, spc[s][i], k, j, want)
					}
				}
			}
		})
	})
}

// kernelSpan returns the span of KernelTol's weight: the norm of the per-axis
// largest distances of a target from the frame origin, the centre of the
// targets' bounding box — the norm of the box's half-widths.
func kernelSpan(tx, ty, tz []float64) float64 {
	reach := func(t []float64) float64 {
		if len(t) == 0 {
			return 0
		}
		return (slices.Max(t) - slices.Min(t)) / 2
	}
	hx, hy, hz := reach(tx), reach(ty), reach(tz)
	return math.Sqrt(hx*hx + hy*hy + hz*hz)
}

// ppNorm returns KernelTol's weighted norm of the list on one target:
// Σ (1 + span/R)·m/R² for the acceleration sums, Σ (1 + span/R)·m/R for the
// potential, with the kernels' r² == 0 guard.
func ppNorm(xi, yi, zi float64, src *PPSoA, eps2, span float64) (nacc, npot float64) {
	for k := range src.X {
		dx, dy, dz := src.X[k]-xi, src.Y[k]-yi, src.Z[k]-zi
		r2 := dx*dx + dy*dy + dz*dz + eps2
		if r2 == 0 {
			continue
		}
		rinv := 1 / math.Sqrt(r2)
		w := (1 + span*rinv) * math.Abs(src.M[k])
		nacc += w * rinv * rinv
		npot += w * rinv
	}
	return
}

// pcNorm is ppNorm for the cell list: every multipole term at its largest,
// with |Q| the Frobenius norm (|trQ| ≤ √3·|Q|, |Q·dr| ≤ |Q|·R, |dr·Q·dr| ≤
// |Q|·R²).
func pcNorm(xi, yi, zi float64, src *PCSoA, eps2, span float64) (nacc, npot float64) {
	for k := range src.X {
		dx, dy, dz := src.X[k]-xi, src.Y[k]-yi, src.Z[k]-zi
		r2 := dx*dx + dy*dy + dz*dz + eps2
		if r2 == 0 {
			continue
		}
		rinv := 1 / math.Sqrt(r2)
		q := math.Sqrt(src.XX[k]*src.XX[k] + src.YY[k]*src.YY[k] + src.ZZ[k]*src.ZZ[k] +
			2*(src.XY[k]*src.XY[k]+src.XZ[k]*src.XZ[k]+src.YZ[k]*src.YZ[k]))
		m := math.Abs(src.M[k])
		w := 1 + span*rinv
		rinv2 := rinv * rinv
		nacc += w * rinv2 * (m + (1.5*math.Sqrt(3)+7.5+3)*q*rinv2)
		npot += w * rinv * (m + (0.5*math.Sqrt(3)+1.5)*q*rinv2)
	}
	return
}
