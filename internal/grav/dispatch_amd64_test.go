//go:build amd64 && !noasm

package grav

import (
	"math"
	"math/rand"
	"testing"

	"bonsai/internal/vec"
)

// forEachTier runs f once with the dispatched kernels pointed at each float32
// tier the host supports, widest first — once on the scalar loops on a host
// without any — and then restores the tier init chose.
func forEachTier(f func()) {
	pp, pc, isa, tol := ppKernel, pcKernel, kernelISA, kernelTol
	defer func() { ppKernel, pcKernel, kernelISA, kernelTol = pp, pc, isa, tol }()
	ecx1, ebx7, xcr0 := hostBits()
	ran := false
	for i := range tiers {
		if tiers[i].supported(ecx1, ebx7, xcr0) {
			tiers[i].use()
			f()
			ran = true
		}
	}
	if !ran {
		f()
	}
}

// TestPickTier pins how CPUID leaf 1 ECX, leaf 7 EBX and XCR0 decode to a
// tier. The trap is a CPU that reports AVX-512F while its OS does not save
// the opmask and ZMM state (XCR0 bits 5–7): there the sixteen-lane kernels
// must not run. AVX512DQ is not needed (the fold is VEXTRACTF64X4, an
// AVX512F instruction).
func TestPickTier(t *testing.T) {
	const (
		c1     = cpuidFMA | cpuidOSXSAVE | cpuidAVX
		b7     = cpuidAVX2
		dq     = 1 << 17
		bw, vl = 1 << 30, 1 << 31
		b7zmm  = b7 | cpuidAVX512F | dq | bw | vl
	)
	for _, c := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		want             string
	}{
		{"avx512 f/dq/bw/vl", c1, b7zmm, 0xE7, "avx512f"},
		{"avx512f without dq", c1, b7 | cpuidAVX512F, 0xE7, "avx512f"},
		{"avx512f, OS saves no opmask/ZMM state", c1, b7zmm, 0x07, "avx2+fma"},
		{"avx512f, OS saves opmask only", c1, b7zmm, 0x27, "avx2+fma"},
		{"avx512f, OS saves ZMM16-31 but not the upper halves", c1, b7zmm, 0xA7, "avx2+fma"},
		{"avx2+fma", c1, b7, 0x07, "avx2+fma"},
		{"avx2 without fma", c1 &^ cpuidFMA, b7zmm, 0xE7, "scalar"},
		{"avx without avx2", c1, 0, 0x07, "scalar"},
		{"osxsave clear", c1 &^ cpuidOSXSAVE, b7zmm, 0, "scalar"},
		{"OS saves no YMM state", c1, b7zmm, 0x03, "scalar"},
	} {
		got := "scalar"
		if tr := pickTier(c.ecx1, c.ebx7, c.xcr0); tr != nil {
			got = tr.isa
		}
		if got != c.want {
			t.Errorf("%s: pickTier(%#x, %#x, %#x) = %s, want %s", c.name, c.ecx1, c.ebx7, c.xcr0, got, c.want)
		}
	}
}

// takesFloat32 reports which of c's two evaluations the float32 kernels
// take: those newFrame accepts, on a tier that dispatches to them.
func takesFloat32(c *kernelCase) (pp, pc bool) {
	if KernelISA() == "scalar" || len(c.tx) == 0 {
		return false, false
	}
	if c.pp.Len() > 0 {
		_, _, _, pp = newFrame(c.tx, c.ty, c.tz, c.pp.X, c.pp.Y, c.pp.Z, c.pp.M, nil, c.eps2)
	}
	if c.pc.Len() > 0 {
		quads := c.pc.moments()
		_, _, _, pc = newFrame(c.tx, c.ty, c.tz, c.pc.X, c.pc.Y, c.pc.Z, c.pc.M, &quads, c.eps2)
	}
	return pp, pc
}

// TestPPNewtonPathSelection pins which calls the float32 kernels (an rsqrt
// seed and one Newton step; the name dates from when only the p-p kernel had
// such a path) take, on both sides of every bound of newFrame, and that
// either way the result keeps the contract FuzzKernelEquivalence states, on
// every tier the host supports. Coordinates are
// uniform in [-extent, extent]³ with two opposite corners among the sources,
// so the extent of a call — the largest distance per axis from the centre of
// the targets' box — is in [extent, 2·extent).
func TestPPNewtonPathSelection(t *testing.T) {
	if KernelISA() == "scalar" {
		t.Skip("host cannot run the float32 kernels")
	}
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name   string
		ns, nt int
		eps2   float64
		extent float64
		mass   float64 // mass scale, 1 if zero
		quad   float64 // moments are Outer(m, quad·extent·N(0,1)); 0.5 if zero
		poison func(c *kernelCase)
		pp, pc bool
	}{
		{name: "eps2=1e-4", ns: 64, nt: 9, eps2: 1e-4, extent: 1, pp: true, pc: true},
		{name: "one-source", ns: 1, nt: 9, eps2: 1e-4, extent: 1, pp: true, pc: true},
		{name: "nine-sources", ns: 9, nt: 1, eps2: 1e-4, extent: 1, pp: true, pc: true},
		{name: "ns=28", ns: 28, nt: 9, eps2: 1e-4, extent: 1, pp: true, pc: true},
		{name: "ns=31", ns: 31, nt: 9, eps2: 1e-4, extent: 1, pp: true, pc: true},
		{name: "ns=32", ns: 32, nt: 9, eps2: 1e-4, extent: 1, pp: true, pc: true},
		{name: "ns=35", ns: 35, nt: 9, eps2: 1e-4, extent: 1, pp: true, pc: true},
		{name: "ns=36", ns: 36, nt: 9, eps2: 1e-4, extent: 1, pp: true, pc: true},
		{name: "three-tiles", ns: 1100, nt: 3, eps2: 1e-4, extent: 1, pp: true, pc: true},

		// The extent is in [1, 2), exponent 1, so ε' = ε/2 and the bound
		// ε' ≥ 2^-16 sits at ε² = 2^-30.
		{name: "eps2=0", ns: 64, nt: 9, eps2: 0, extent: 1},
		{name: "eps2=2^-121", ns: 64, nt: 9, eps2: 0x1p-121, extent: 1},
		{name: "eps2=2^-120", ns: 64, nt: 9, eps2: 0x1p-120, extent: 1},
		{name: "eps2=2^-31", ns: 64, nt: 9, eps2: 0x1p-31, extent: 1},
		{name: "eps2=2^-30", ns: 64, nt: 9, eps2: 0x1p-30, extent: 1, pp: true, pc: true},
		// ε far above the extent is the length scale itself.
		{name: "eps2=2^120", ns: 64, nt: 9, eps2: 0x1p120, extent: 1, pp: true, pc: true},
		{name: "eps2=2^121", ns: 64, nt: 9, eps2: 0x1p121, extent: 1, pp: true, pc: true},
		{name: "eps2=1e300", ns: 64, nt: 9, eps2: 1e300, extent: 1},
		{name: "eps2=+Inf", ns: 64, nt: 9, eps2: inf, extent: 1},
		{name: "eps2=NaN", ns: 64, nt: 9, eps2: nan, extent: 1},

		// The unit system does not matter: extents that used to fall off the
		// float32 seed's range, and
		// a galaxy in CGS units (10 kpc in cm, solar masses in g, ε = 100 pc).
		{name: "extent=1e17", ns: 64, nt: 9, eps2: 1e30, extent: 1e17, pp: true, pc: true},
		{name: "extent=1e18", ns: 64, nt: 9, eps2: 1e32, extent: 1e18, pp: true, pc: true},
		{name: "cgs-galaxy", ns: 64, nt: 9, eps2: 9e40, extent: 3e22, mass: 2e33, pp: true, pc: true},
		{name: "extent=2^298", ns: 64, nt: 9, eps2: 0x1p580, extent: 0x1p298, pp: true, pc: true},
		{name: "extent=2^300", ns: 64, nt: 9, eps2: 0x1p580, extent: 0x1p300},
		{name: "extent=2^-299", ns: 64, nt: 9, eps2: 0x1p-620, extent: 0x1p-299, pp: true, pc: true},
		{name: "extent=2^-302", ns: 64, nt: 9, eps2: 0x1p-620, extent: 0x1p-302},
		{name: "mass=2^299", ns: 64, nt: 9, eps2: 1e-4, extent: 1, mass: 0x1p299, pp: true, pc: true},
		{name: "mass=2^301", ns: 64, nt: 9, eps2: 1e-4, extent: 1, mass: 0x1p301},
		{name: "mass=2^-302", ns: 64, nt: 9, eps2: 1e-4, extent: 1, mass: 0x1p-302},

		// Moments far above mass·extent² keep the cell list off the path
		// (|Q'| ≤ 2^10 with Q' = Q/(16·2^eM·4^eL)); the particle list has none.
		{name: "quad=2^4", ns: 64, nt: 9, eps2: 1e-4, extent: 1, quad: 0x1p4, pp: true, pc: true},
		{name: "quad=2^10", ns: 64, nt: 9, eps2: 1e-4, extent: 1, quad: 0x1p10, pp: true},

		// An Inf, and a NaN after it, anywhere among the inputs.
		{name: "inf-then-nan", ns: 64, nt: 9, eps2: 1e-4, extent: 1,
			poison: func(c *kernelCase) { c.tx[0], c.tx[4] = inf, nan }},
		{name: "inf-then-nan-src", ns: 64, nt: 9, eps2: 1e-4, extent: 1,
			poison: func(c *kernelCase) { c.pp.X[2], c.pp.X[10], c.pc.Z[5], c.pc.Z[9] = -inf, nan, inf, nan }},
		{name: "nan-alone", ns: 64, nt: 9, eps2: 1e-4, extent: 1,
			poison: func(c *kernelCase) { c.ty[5] = nan }},
		{name: "nan-tail-source", ns: 63, nt: 9, eps2: 1e-4, extent: 1,
			poison: func(c *kernelCase) { c.pp.Z[62], c.pc.Z[62] = nan, nan }},
		{name: "inf-mass", ns: 64, nt: 9, eps2: 1e-4, extent: 1,
			poison: func(c *kernelCase) { c.pp.M[7], c.pc.M[7] = inf, inf }},
		{name: "nan-moment", ns: 64, nt: 9, eps2: 1e-4, extent: 1, pp: true,
			poison: func(c *kernelCase) { c.pc.XZ[33] = nan }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			coord := func() float64 { return tc.extent * (2*rng.Float64() - 1) }
			mass, quad := tc.mass, tc.quad
			if mass == 0 {
				mass = 1
			}
			if quad == 0 {
				quad = 0.5
			}
			c := &kernelCase{eps2: tc.eps2}
			for k := 0; k < tc.ns; k++ {
				p := vec.V3{X: coord(), Y: coord(), Z: coord()}
				if k < 2 { // opposite corners: the extent is known
					s := tc.extent * float64(2*k-1)
					p = vec.V3{X: s, Y: s, Z: s}
				}
				m := mass * (0.5 + 0.5*rng.Float64())
				c.pp.Append(p, m)
				d := quad * tc.extent
				c.pc.Append(Multipole{COM: p, M: m, Quad: vec.Outer(m, vec.V3{
					X: d * rng.NormFloat64(), Y: d * rng.NormFloat64(), Z: d * rng.NormFloat64()})})
			}
			for i := 0; i < tc.nt; i++ {
				c.tx, c.ty, c.tz = append(c.tx, coord()), append(c.ty, coord()), append(c.tz, coord())
			}
			if tc.poison != nil {
				tc.poison(c)
			}
			forEachTier(func() {
				if pp, pc := takesFloat32(c); pp != tc.pp || pc != tc.pc {
					t.Fatalf("%s: float32 path taken: pp %v pc %v, want pp %v pc %v", KernelISA(), pp, pc, tc.pp, tc.pc)
				}
				checkAgainstScalar(t, c, make([]float64, tc.nt), math.Abs(math.Log2(tc.extent)) <= 140)
			})
		})
	}
}

// TestPPRinvAccuracy makes the bound on each tier's reciprocal square root a
// checked number. 4·10⁴ separations on a 2⁻¹² grid, uniform in [0, 2), are
// read back as the potential of one unit-mass source at x = 0 (the other
// lanes carry zero mass). The frame's origin, the centre of the targets' box,
// is the midpoint of two grid values and so lies on the 2⁻¹³ grid, as does
// every coordinate's difference from it. The power-of-two normalisation keeps
// a grid, and normalised coordinates and every dx are below 2 in magnitude,
// at most 15 significant bits: the narrowing, dx and the products of the
// potential are exact, and what is measured is the one FMA rounding of
// r² = ε² + dx² (½u on 1/r, u = 2⁻²⁴), the seed's relative error e taken
// through one Newton step (1.5·e²) and the step's own three roundings (2.5u).
// VRSQRTPS has e = 1.5·2⁻¹², so 3.4u from the step and 6.4u in all; the step
// errs short from either side, so the mean error is negative. VRSQRT14PS has
// e = 2⁻¹⁴, 0.1u from the step and 3.1u in all, which the 3.38u the 12-bit
// seed measures would break: where both tiers run, the sixteen-lane tier must
// also measure below the eight-lane one, or it is not running its own seed.
// Every measured worst case must be above 1u, or this is not the one-step
// kernel any more and the bounds are stale.
func TestPPRinvAccuracy(t *testing.T) {
	if KernelISA() == "scalar" {
		t.Skip("host cannot run the float32 kernels")
	}
	const (
		n    = 40_000
		eps2 = 0x1p-8
		u    = 0x1p-24
	)
	bounds := map[string]struct {
		worst float64
		short bool // the mean error is negative
	}{
		"avx2+fma": {6.4 * u, true},
		"avx512f":  {3.1 * u, false},
	}
	rng := rand.New(rand.NewSource(43))
	tx := make([]float64, n)
	for i := range tx {
		tx[i] = float64(rng.Intn(1<<13)) * 0x1p-12
	}
	zero := make([]float64, n)
	worst := map[string]float64{}
	forEachTier(func() {
		isa, b := KernelISA(), bounds[KernelISA()]
		w, sum := 0.0, 0.0
		// First block, second block and tail block of either width's loop.
		for _, live := range []int{0, 25, 39} {
			var src PPSoA
			for k := 0; k < 40; k++ {
				m := 0.0
				if k == live {
					m = 1
				}
				src.Append(vec.V3{}, m)
			}
			if pp, _ := takesFloat32(&kernelCase{tx: tx, ty: zero, tz: zero, pp: src, eps2: eps2}); !pp {
				t.Fatalf("%s: call not taken by the float32 path", isa)
			}
			got := make([]float64, n)
			ax, ay, az := make([]float64, n), make([]float64, n), make([]float64, n) // ignored
			PPBatch(tx, zero, zero, &src, eps2, ax, ay, az, got)
			for i := range tx {
				rel := -got[i]*math.Sqrt(tx[i]*tx[i]+eps2) - 1
				sum += rel
				w = math.Max(w, math.Abs(rel))
			}
		}
		worst[isa] = w
		t.Logf("%s: worst |Δrinv/rinv| = %.2e (%.2fu), mean = %+.2e, bound %.2e", isa, w, w/u, sum/(3*n), b.worst)
		if !(w <= b.worst) || !(w > u) {
			t.Errorf("%s: worst |Δrinv/rinv| = %.2fu, want it in (1u, %.1fu]", isa, w/u, b.worst/u)
		}
		if b.short && !(sum < 0) {
			t.Errorf("%s: mean Δrinv/rinv = %+.2e, want the negative mean of a step that errs short", isa, sum/(3*n))
		}
	})
	if w16, ok := worst["avx512f"]; ok && !(w16 < worst["avx2+fma"]) {
		t.Errorf("avx512f worst %.2fu is not below avx2+fma's %.2fu: the 14-bit seed is not the one running", w16/u, worst["avx2+fma"]/u)
	}
}

// TestMaxAbs3 (named for the three-array helper it used to be) checks the
// extent helper on its vector body and scalar tail:
// origin subtracted, signs dropped, the exponent of the maximum kept, and any
// Inf or NaN returned as one whatever follows it.
func TestMaxAbs3(t *testing.T) {
	if KernelISA() == "scalar" {
		t.Skip("host cannot run the float32 kernels")
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		x      []float64
		origin float64
		want   float64 // non-finite: any Inf or NaN
	}{
		{[]float64{0}, 0, 0},
		{[]float64{1, -2}, 0, 2},
		{[]float64{1, -2}, 1, 3},
		{[]float64{1, 2, 3, 4, -9}, 0, 9},
		{[]float64{1, 2, -70, 4, 5, 6, 7}, 0, 70},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8.5}, 8, 7},
		{[]float64{3 + 0x1p-40, 1}, 0, 3}, // low mantissa bits are dropped
		{[]float64{nan, 2, 3, 4, 1, 1, 1, 1}, 0, nan},
		{[]float64{1, 2, 3, 4, nan}, 0, nan},
		{[]float64{-inf, 2, 3, 4, nan, 1, 1, 1, 0, 0, 0, 0}, 0, nan},
		{[]float64{0, 0, 0, 0, inf, nan}, 0, nan},
		{[]float64{0, 0, 0, 0, 0, 0, inf}, 5, nan},
		{[]float64{1, 2}, inf, nan},
	} {
		got := maxAbs(c.x, c.origin)
		if finite := !math.IsNaN(got) && !math.IsInf(got, 0); math.IsNaN(c.want) == finite || (finite && got != c.want) {
			t.Errorf("maxAbs(%v, %v) = %v, want %v", c.x, c.origin, got, c.want)
		}
	}
}

// TestCentre checks the targets' box pass on its vector body and broadcast
// tail, for each axis: the centre of the least and greatest coordinate, the
// reach from it over all three axes, and a NaN reach for any Inf or NaN
// whatever its place (the pass's minimum and maximum drop a NaN).
func TestCentre(t *testing.T) {
	if KernelISA() == "scalar" {
		t.Skip("host cannot run the float32 kernels")
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		x, y, z []float64
		o       [3]float64
		reach   float64 // NaN: any coordinate is not finite
	}{
		{[]float64{3}, []float64{-1}, []float64{0}, [3]float64{3, -1, 0}, 0},
		{[]float64{1, -2}, []float64{0, 0}, []float64{5, 5}, [3]float64{-0.5, 0, 5}, 1.5},
		{[]float64{0, 1, 2, 3}, []float64{0, 0, 0, 8}, []float64{1, 1, 1, 1}, [3]float64{1.5, 4, 1}, 4},
		{[]float64{1, 2, 3, 4, -9}, []float64{0, 0, 0, 0, 0}, []float64{0, 0, 0, 0, 0}, [3]float64{-2.5, 0, 0}, 6.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, []float64{0, 0, 0, 0, 0, 0, 0, 0, -70}, []float64{0, 0, 0, 0, 0, 0, 0, 0, 0}, [3]float64{5, -35, 0}, 35},
		{[]float64{nan, 2, 3, 4, 1}, []float64{0, 0, 0, 0, 0}, []float64{0, 0, 0, 0, 0}, [3]float64{}, nan},
		{[]float64{1, 2, 3, 4, 1}, []float64{0, 0, nan, 0, 0}, []float64{0, 0, 0, 0, 0}, [3]float64{}, nan},
		{[]float64{1, 2, 3, 4, 1}, []float64{0, 0, 0, 0, 0}, []float64{0, 0, 0, 0, nan}, [3]float64{}, nan},
		{[]float64{1, 2, 3, 4, 1, 2, 3, 4}, []float64{0, 0, 0, 0, 0, 0, 0, -inf}, []float64{0, 0, 0, 0, 0, 0, 0, 0}, [3]float64{}, nan},
		{[]float64{inf, inf}, []float64{0, 0}, []float64{0, 0}, [3]float64{}, nan},
	} {
		ox, oy, oz, reach := centre(c.x, c.y, c.z)
		if math.IsNaN(c.reach) {
			if !math.IsNaN(reach) {
				t.Errorf("centre(%v, %v, %v): reach %v, want NaN", c.x, c.y, c.z, reach)
			}
			continue
		}
		if [3]float64{ox, oy, oz} != c.o || reach != c.reach {
			t.Errorf("centre(%v, %v, %v) = %v, %v, %v, %v, want %v, %v", c.x, c.y, c.z, ox, oy, oz, reach, c.o, c.reach)
		}
	}
}
