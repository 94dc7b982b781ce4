package grav

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"bonsai/internal/vec"
)

func TestKernelISAReported(t *testing.T) {
	isa := KernelISA()
	if isa != "scalar" && isa != "avx2+fma" {
		t.Fatalf("KernelISA() = %q, want scalar or avx2+fma", isa)
	}
	if runtime.GOARCH != "amd64" && isa != "scalar" {
		t.Fatalf("non-amd64 host reports ISA %q", isa)
	}
	t.Logf("active kernel ISA: %s", isa)
}

// closeEnough is the SIMD-vs-scalar agreement criterion: equal NaN-ness, or
// ≤ tol relative to the larger of the reference value and 1.
func closeEnough(got, want, tol float64) bool {
	if math.IsNaN(want) || math.IsNaN(got) {
		return math.IsNaN(want) && math.IsNaN(got)
	}
	return math.Abs(got-want) <= tol*(1+math.Abs(want))
}

// TestDispatchedMatchesScalarRemainders drives the dispatched kernels against
// the scalar reference across every lane-remainder class (ns ≡ 0..3 mod 4)
// and odd target counts, with pre-seeded accumulators so the += semantics of
// the horizontal-sum epilogue are checked too. On hosts without AVX2+FMA (or
// under -tags noasm) this degenerates to scalar-vs-scalar and stays green.
func TestDispatchedMatchesScalarRemainders(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, ns := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 31, 64, 257, 515} {
		for _, nt := range []int{1, 2, 3, 7} {
			var pp PPSoA
			var pc PCSoA
			for k := 0; k < ns; k++ {
				p := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
				pp.Append(p, rng.Float64())
				pc.Append(Multipole{
					COM:  p,
					M:    rng.Float64(),
					Quad: vec.Outer(0.1+rng.Float64(), vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}),
				})
			}
			tx := make([]float64, nt)
			ty := make([]float64, nt)
			tz := make([]float64, nt)
			seed := make([]float64, nt)
			for i := range tx {
				tx[i], ty[i], tz[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
				seed[i] = rng.NormFloat64()
			}
			run := func(eval func(ax, ay, az, apot []float64)) (ax, ay, az, apot []float64) {
				ax = append([]float64(nil), seed...)
				ay = append([]float64(nil), seed...)
				az = append([]float64(nil), seed...)
				apot = append([]float64(nil), seed...)
				eval(ax, ay, az, apot)
				return
			}
			const eps2 = 1e-4
			ax, ay, az, apot := run(func(ax, ay, az, apot []float64) {
				PPBatch(tx, ty, tz, &pp, eps2, ax, ay, az, apot)
			})
			wx, wy, wz, wpot := run(func(ax, ay, az, apot []float64) {
				PPBatchScalar(tx, ty, tz, &pp, eps2, ax, ay, az, apot)
			})
			for i := 0; i < nt; i++ {
				if !closeEnough(ax[i], wx[i], 1e-12) || !closeEnough(ay[i], wy[i], 1e-12) ||
					!closeEnough(az[i], wz[i], 1e-12) || !closeEnough(apot[i], wpot[i], 1e-12) {
					t.Fatalf("PP ns=%d nt=%d target %d: (%v %v %v %v) != (%v %v %v %v)",
						ns, nt, i, ax[i], ay[i], az[i], apot[i], wx[i], wy[i], wz[i], wpot[i])
				}
			}
			ax, ay, az, apot = run(func(ax, ay, az, apot []float64) {
				PCBatch(tx, ty, tz, &pc, eps2, ax, ay, az, apot)
			})
			wx, wy, wz, wpot = run(func(ax, ay, az, apot []float64) {
				PCBatchScalar(tx, ty, tz, &pc, eps2, ax, ay, az, apot)
			})
			for i := 0; i < nt; i++ {
				if !closeEnough(ax[i], wx[i], 1e-12) || !closeEnough(ay[i], wy[i], 1e-12) ||
					!closeEnough(az[i], wz[i], 1e-12) || !closeEnough(apot[i], wpot[i], 1e-12) {
					t.Fatalf("PC ns=%d nt=%d target %d: (%v %v %v %v) != (%v %v %v %v)",
						ns, nt, i, ax[i], ay[i], az[i], apot[i], wx[i], wy[i], wz[i], wpot[i])
				}
			}
		}
	}
}

// TestBatchCoincidentUnsoftened pins the eps2 == 0 coincident-source
// behavior both kernel paths must share (the regression this PR fixes: the
// batch kernels used to produce Inf/NaN here). A source exactly on top of an
// unsoftened target contributes nothing — acceleration *and* potential —
// matching AccumulatePP's self-interaction skip; every other source still
// contributes normally.
func TestBatchCoincidentUnsoftened(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tpos := []vec.V3{
		{X: 1, Y: 2, Z: 3},
		{X: -0.5, Y: 0, Z: 0.25},
		{}, // origin target: exercises signed-zero differences
	}
	var pp PPSoA
	var pcs PCSoA
	srcPos := make([]vec.V3, 0, 8)
	srcM := make([]float64, 0, 8)
	add := func(p vec.V3, m float64) {
		srcPos = append(srcPos, p)
		srcM = append(srcM, m)
		pp.Append(p, m)
		pcs.Append(Multipole{COM: p, M: m}) // monopole cell at the same spot
	}
	// One coincident source per target (including one at the origin, where
	// dx = ±0.0 - ±0.0 exercises signed zeros), plus ordinary sources to
	// verify they still contribute around the guarded lanes.
	for _, p := range tpos {
		add(p, 1+rng.Float64())
	}
	for k := 0; k < 5; k++ {
		add(vec.V3{X: 4 + rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}, rng.Float64())
	}

	var tg Targets
	tg.Gather(tpos)
	PPBatch(tg.X, tg.Y, tg.Z, &pp, 0, tg.AX, tg.AY, tg.AZ, tg.Pot)

	var tgRef Targets
	tgRef.Gather(tpos)
	PPBatchScalar(tgRef.X, tgRef.Y, tgRef.Z, &pp, 0, tgRef.AX, tgRef.AY, tgRef.AZ, tgRef.Pot)

	for i, p := range tpos {
		// AccumulatePP with eps2 == 0 skips coincident sources — the batch
		// paths' r² == 0 guard must land on the same totals.
		want := AccumulatePP(p, srcPos, srcM, 0, nil)
		for _, got := range []struct {
			name           string
			ax, ay, az, ph float64
		}{
			{"dispatched", tg.AX[i], tg.AY[i], tg.AZ[i], tg.Pot[i]},
			{"scalar", tgRef.AX[i], tgRef.AY[i], tgRef.AZ[i], tgRef.Pot[i]},
		} {
			g := vec.V3{X: got.ax, Y: got.ay, Z: got.az}
			if math.IsNaN(got.ax) || math.IsInf(got.ax, 0) || math.IsNaN(got.ph) || math.IsInf(got.ph, 0) {
				t.Fatalf("%s PPBatch target %d: non-finite result a=%v pot=%v", got.name, i, g, got.ph)
			}
			if g.Sub(want.Acc).Norm() > 1e-12*(1+want.Acc.Norm()) {
				t.Errorf("%s PPBatch target %d: acc %v != AccumulatePP %v", got.name, i, g, want.Acc)
			}
			if !closeEnough(got.ph, want.Pot, 1e-12) {
				t.Errorf("%s PPBatch target %d: pot %v != AccumulatePP %v", got.name, i, got.ph, want.Pot)
			}
		}
	}

	// Same guard for the p-c kernel: a monopole cell COM exactly on an
	// unsoftened target contributes nothing, the rest contribute normally.
	tg.Gather(tpos)
	PCBatch(tg.X, tg.Y, tg.Z, &pcs, 0, tg.AX, tg.AY, tg.AZ, tg.Pot)
	tgRef.Gather(tpos)
	PCBatchScalar(tgRef.X, tgRef.Y, tgRef.Z, &pcs, 0, tgRef.AX, tgRef.AY, tgRef.AZ, tgRef.Pot)
	for i, p := range tpos {
		var want Force
		for k, sp := range srcPos {
			if sp == p {
				continue
			}
			want.Add(PC(p, Multipole{COM: sp, M: srcM[k]}, 0))
		}
		for _, got := range []struct {
			name           string
			ax, ay, az, ph float64
		}{
			{"dispatched", tg.AX[i], tg.AY[i], tg.AZ[i], tg.Pot[i]},
			{"scalar", tgRef.AX[i], tgRef.AY[i], tgRef.AZ[i], tgRef.Pot[i]},
		} {
			g := vec.V3{X: got.ax, Y: got.ay, Z: got.az}
			if math.IsNaN(got.ax) || math.IsInf(got.ax, 0) || math.IsNaN(got.ph) || math.IsInf(got.ph, 0) {
				t.Fatalf("%s PCBatch target %d: non-finite result a=%v pot=%v", got.name, i, g, got.ph)
			}
			if g.Sub(want.Acc).Norm() > 1e-12*(1+want.Acc.Norm()) {
				t.Errorf("%s PCBatch target %d: acc %v != %v", got.name, i, g, want.Acc)
			}
			if !closeEnough(got.ph, want.Pot, 1e-12) {
				t.Errorf("%s PCBatch target %d: pot %v != %v", got.name, i, got.ph, want.Pot)
			}
		}
	}
}

// TestPPRinvAccuracy makes the documented bound on the dispatched p-p
// kernel's reciprocal square root a checked number: 1.2·10⁵ separations,
// log-uniform over [1e-15, 1e15], each read back as the potential of one
// unit-mass source (the other lanes carry zero mass, so the sum is exact),
// with the live source placed in the first block, the second block and the
// tail block of the 2×4 loop in turn. The AVX2 Newton loop (float32 seed, two
// float64 steps) is bounded by 6.1e-14; the scalar tier is exact.
func TestPPRinvAccuracy(t *testing.T) {
	const (
		perLane = 40_000
		ns      = 36
		eps2    = 1e-36
	)
	rng := rand.New(rand.NewSource(43))
	tx := make([]float64, perLane)
	zero := make([]float64, perLane)
	got := make([]float64, perLane)
	want := make([]float64, perLane)
	ax, ay, az := make([]float64, perLane), make([]float64, perLane), make([]float64, perLane) // ignored
	worst, sum := 0.0, 0.0
	for _, live := range []int{0, 7, 33} {
		var src PPSoA
		for k := 0; k < ns; k++ {
			m := 0.0
			if k == live {
				m = 1
			}
			src.Append(vec.V3{}, m)
		}
		for i := range tx {
			tx[i] = math.Pow(10, -15+30*rng.Float64())
			got[i], want[i] = 0, 0
		}
		PPBatch(tx, zero, zero, &src, eps2, ax, ay, az, got)
		PPBatchScalar(tx, zero, zero, &src, eps2, ax, ay, az, want)
		for i := range tx {
			rel := (got[i] - want[i]) / want[i]
			sum += rel
			worst = math.Max(worst, math.Abs(rel))
		}
	}
	t.Logf("%s: worst |Δrinv/rinv| = %.2e, mean = %+.2e over %d separations",
		KernelISA(), worst, sum/(3*perLane), 3*perLane)
	if !(worst <= 1e-13) {
		t.Fatalf("worst |Δrinv/rinv| = %v, want ≤ 1e-13", worst)
	}
}
