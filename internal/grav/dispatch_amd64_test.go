//go:build amd64 && !noasm

package grav

import (
	"math"
	"math/rand"
	"testing"

	"bonsai/internal/vec"
)

// TestPPNewtonPathSelection pins which of ppAVX2's two inner loops a call
// takes, on both sides of every bound of ppNewtonOK, and that whichever loop
// runs agrees with the scalar reference at FuzzKernelEquivalence's tolerance.
// Masses scale with the geometry so the potential terms are at least O(1)
// and the 1e-12·(1+Σ|contrib|) bound is a relative one.
func TestPPNewtonPathSelection(t *testing.T) {
	if KernelISA() != "avx2+fma" {
		t.Skip("host cannot run the AVX2 kernels")
	}
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name   string
		ns, nt int
		eps2   float64
		extent float64 // coordinates are uniform in [-extent, extent]
		mass   float64 // mass scale; 0 picks max(extent, ε) so potentials are O(1)
		poison func(tx, sx []float64)
		newton bool
	}{
		{name: "eps2=0", ns: 64, nt: 9, eps2: 0, extent: 1},
		{name: "eps2=2^-121", ns: 64, nt: 9, eps2: 0x1p-121, extent: 1},
		{name: "eps2=2^-120", ns: 64, nt: 9, eps2: 0x1p-120, extent: 1, newton: true},
		{name: "eps2=1e-4", ns: 64, nt: 9, eps2: 1e-4, extent: 1, newton: true},
		{name: "eps2=2^120", ns: 64, nt: 9, eps2: 0x1p120, extent: 1, newton: true},
		{name: "eps2=2^121", ns: 64, nt: 9, eps2: 0x1p121, extent: 1},
		{name: "eps2=1e300", ns: 64, nt: 9, eps2: 1e300, extent: 1},

		// 3·(2·extent)² crosses 2^120 at extent ≈ 3.3e17.
		{name: "extent=1e17", ns: 64, nt: 9, eps2: 1e-4, extent: 1e17, newton: true},
		{name: "extent=1e18", ns: 64, nt: 9, eps2: 1e-4, extent: 1e18},
		// A galaxy in CGS units (10 kpc in cm, solar masses in g, ε = 100 pc):
		// far outside float32, must come out right through the exact loop.
		{name: "cgs-galaxy", ns: 64, nt: 9, eps2: 9e40, extent: 3e22, mass: 2e33},

		{name: "ns=28", ns: 28, nt: 9, eps2: 1e-4, extent: 1},
		{name: "ns=31", ns: 31, nt: 9, eps2: 1e-4, extent: 1},
		{name: "ns=32", ns: 32, nt: 9, eps2: 1e-4, extent: 1, newton: true},
		{name: "ns=35", ns: 35, nt: 9, eps2: 1e-4, extent: 1, newton: true},
		{name: "ns=36", ns: 36, nt: 9, eps2: 1e-4, extent: 1, newton: true},

		// An Inf and then a NaN in the same lane of maxAbs3AVX2: the NaN must
		// not erase the Inf. A NaN alone is skipped; it poisons the same
		// accumulators in either loop.
		{name: "inf-then-nan", ns: 64, nt: 9, eps2: 1e-4, extent: 1,
			poison: func(tx, sx []float64) { tx[0], tx[4] = inf, nan }},
		{name: "inf-then-nan-src", ns: 64, nt: 9, eps2: 1e-4, extent: 1,
			poison: func(tx, sx []float64) { sx[2], sx[10] = -inf, nan }},
		{name: "nan-alone", ns: 64, nt: 9, eps2: 1e-4, extent: 1, newton: true,
			poison: func(tx, sx []float64) { tx[5] = nan }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			coord := func() float64 { return c.extent * (2*rng.Float64() - 1) }
			mass := c.mass
			if mass == 0 {
				mass = math.Max(c.extent, math.Sqrt(c.eps2))
			}
			var src PPSoA
			for k := 0; k < c.ns; k++ {
				src.Append(vec.V3{X: coord(), Y: coord(), Z: coord()}, mass*(0.5+rng.Float64()))
			}
			tx, ty, tz := make([]float64, c.nt), make([]float64, c.nt), make([]float64, c.nt)
			for i := range tx {
				tx[i], ty[i], tz[i] = coord(), coord(), coord()
			}
			if c.poison != nil {
				c.poison(tx, src.X)
			}
			nv := c.ns &^ 3
			if got := ppNewtonOK(tx, ty, tz, src.X[:nv], src.Y[:nv], src.Z[:nv], c.eps2); got != c.newton {
				t.Fatalf("ppNewtonOK = %v, want %v", got, c.newton)
			}
			ax, ay, az, apot := make([]float64, c.nt), make([]float64, c.nt), make([]float64, c.nt), make([]float64, c.nt)
			wx, wy, wz, wpot := make([]float64, c.nt), make([]float64, c.nt), make([]float64, c.nt), make([]float64, c.nt)
			PPBatch(tx, ty, tz, &src, c.eps2, ax, ay, az, apot)
			PPBatchScalar(tx, ty, tz, &src, c.eps2, wx, wy, wz, wpot)
			for i := 0; i < c.nt; i++ {
				nx, ny, nz, np := ppAbsNorm(tx[i], ty[i], tz[i], &src, c.eps2)
				checkLane(t, "PP.ax", i, ax[i], wx[i], nx)
				checkLane(t, "PP.ay", i, ay[i], wy[i], ny)
				checkLane(t, "PP.az", i, az[i], wz[i], nz)
				checkLane(t, "PP.pot", i, apot[i], wpot[i], np)
				if c.poison == nil && !(np > 0.1 && math.Abs(apot[i]) > 0.1) {
					t.Fatalf("target %d: potential %v (norm %v) too small for the bound to bind", i, apot[i], np)
				}
			}
		})
	}
}

// TestMaxAbs3 checks the extent helper on its vector body and scalar tail:
// signs dropped, NaNs skipped, an Inf kept whatever follows it.
func TestMaxAbs3(t *testing.T) {
	if KernelISA() != "avx2+fma" {
		t.Skip("host cannot run the AVX2 kernels")
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		x, y, z []float64
		want    float64
	}{
		{nil, nil, nil, 0},
		{[]float64{1, -2}, []float64{0, 0}, []float64{-0.5, 1.5}, 2},
		{[]float64{1, 2, 3, 4, 5}, []float64{-9, 0, 0, 0, 0}, []float64{0, 0, 0, 0, -7}, 9},
		{[]float64{1, 2, 3, 4, 5}, []float64{0, 0, 0, 0, 0}, []float64{0, 0, 0, 0, -70}, 70},
		{[]float64{nan, 2, 3, 4, 1, 1, 1, 1}, []float64{0, 0, 0, 0, nan, 0, 0, 0}, make([]float64, 8), 4},
		{[]float64{-inf, 2, 3, 4, nan, 1, 1, 1, 0, 0, 0, 0}, make([]float64, 12), make([]float64, 12), inf},
		{[]float64{0, 0, 0, 0, 0, nan}, []float64{0, 0, 0, 0, inf, 0}, make([]float64, 6), inf},
	} {
		if got := maxAbs3(c.x, c.y, c.z); got != c.want {
			t.Errorf("maxAbs3(%v, %v, %v) = %v, want %v", c.x, c.y, c.z, got, c.want)
		}
	}
}
