package grav

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"bonsai/internal/vec"
)

func TestKernelISAReported(t *testing.T) {
	isa := KernelISA()
	if isa != "scalar" && isa != "avx2+fma" && isa != "avx512f" {
		t.Fatalf("KernelISA() = %q, want scalar, avx2+fma or avx512f", isa)
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

// TestDispatchedMatchesScalarRemainders drives every kernel tier the host
// supports against the scalar reference across every lane-remainder class
// (ns ≡ 0..7 mod 8), lists that end in either width's unrolled pair or its
// tail block, both sides of the 512-lane tile boundary and odd target counts,
// with pre-seeded accumulators so the += semantics of the reduce are checked
// too. On hosts without AVX2+FMA (or under -tags noasm) this is scalar
// against scalar, bit for bit.
func TestDispatchedMatchesScalarRemainders(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, ns := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 64, 257, 511, 512, 513, 515, 1024, 1031} {
		for _, nt := range []int{1, 2, 3, 7} {
			c := &kernelCase{eps2: 1e-4}
			for k := 0; k < ns; k++ {
				p := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
				c.pp.Append(p, rng.Float64())
				c.pc.Append(Multipole{
					COM:  p,
					M:    rng.Float64(),
					Quad: vec.Outer(0.1+rng.Float64(), vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}),
				})
			}
			seed := make([]float64, nt)
			for i := range seed {
				c.tx, c.ty, c.tz = append(c.tx, rng.NormFloat64()), append(c.ty, rng.NormFloat64()), append(c.tz, rng.NormFloat64())
				seed[i] = rng.NormFloat64()
			}
			forEachTier(func() { checkAgainstScalar(t, c, seed, true) })
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

	forEachTier(func() {
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
				{KernelISA(), tg.AX[i], tg.AY[i], tg.AZ[i], tg.Pot[i]},
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
				{KernelISA(), tg.AX[i], tg.AY[i], tg.AZ[i], tg.Pot[i]},
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
	})
}

// BenchmarkKernelTiers measures every kernel tier the host supports — the
// paper's Fig. 1 exercise of one kernel across two device generations, here
// two ISA generations — on one 64-target group against source lists of 8 to
// 4096, the narrowing pass included, in Gflop/s at the §VI.A flop counts.
// The root package's BenchmarkKernels_*_SIMD_* measure the dispatched tier.
func BenchmarkKernelTiers(b *testing.B) {
	const nt = 64
	rng := rand.New(rand.NewSource(42))
	var tg Targets
	tpos := make([]vec.V3, nt)
	for i := range tpos {
		tpos[i] = vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
	}
	tg.Gather(tpos)
	lens := []int{8, 64, 512, 4096}
	pps, pcs := make([]PPSoA, len(lens)), make([]PCSoA, len(lens))
	for i, l := range lens {
		for k := 0; k < l; k++ {
			p := vec.V3{X: 5 + rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
			m := 0.5 + rng.Float64()
			pps[i].Append(p, m)
			pcs[i].Append(Multipole{COM: p, M: m, Quad: vec.Outer(m, vec.V3{X: 0.3, Y: 0.2, Z: 0.1})})
		}
	}
	rate := func(b *testing.B, pairs int, flops float64) {
		b.ReportMetric(float64(b.N)*float64(pairs)*flops/b.Elapsed().Seconds()/1e9, "Gflop/s")
	}
	forEachTier(func() {
		for i, l := range lens {
			b.Run(fmt.Sprintf("%s/PP/L%d", KernelISA(), l), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					PPBatch(tg.X, tg.Y, tg.Z, &pps[i], 1e-4, tg.AX, tg.AY, tg.AZ, tg.Pot)
				}
				rate(b, nt*l, FlopsPP)
			})
			b.Run(fmt.Sprintf("%s/PC/L%d", KernelISA(), l), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					PCBatch(tg.X, tg.Y, tg.Z, &pcs[i], 1e-4, tg.AX, tg.AY, tg.AZ, tg.Pot)
				}
				rate(b, nt*l, FlopsPC)
			})
		}
	})
}
