package grav

import (
	"math"
	"math/rand"
	"testing"

	"bonsai/internal/vec"
)

// randTargets returns nt random target positions plus gathered Targets
// scratch ready for batch evaluation.
func randTargets(rng *rand.Rand, nt int) ([]vec.V3, *Targets) {
	pos := make([]vec.V3, nt)
	for i := range pos {
		pos[i] = vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
	}
	var tg Targets
	tg.Gather(pos)
	return pos, &tg
}

// withinTol reports whether a dispatched sum agrees with its reference to
// KernelTol against norm, the weighted contribution norm of ppNorm/pcNorm.
// The second term covers the float64 rounding of the reference itself, which
// sums per-pair Force values in another order.
func withinTol(diff, want, norm float64) bool {
	return diff <= KernelTol()*norm+1e-12*(1+want)
}

func TestPPBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		nt, ns int
		eps2   float64
	}{
		{1, 1, 0.01}, {7, 33, 0.01}, {64, 512, 1e-4}, {3, 0, 0.01}, {0, 5, 0.01},
	} {
		tpos, tg := randTargets(rng, tc.nt)
		var src PPSoA
		srcPos := make([]vec.V3, tc.ns)
		srcM := make([]float64, tc.ns)
		for k := range srcPos {
			srcPos[k] = vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
			srcM[k] = rng.Float64()
			src.Append(srcPos[k], srcM[k])
		}
		// Zero-separation softened pair: a source exactly on top of the first
		// target must contribute zero acceleration and -m/ε potential.
		if tc.nt > 0 && tc.ns > 0 {
			srcPos = append(srcPos, tpos[0])
			srcM = append(srcM, 2.5)
			src.Append(tpos[0], 2.5)
		}

		PPBatch(tg.X, tg.Y, tg.Z, &src, tc.eps2, tg.AX, tg.AY, tg.AZ, tg.Pot)

		span := kernelSpan(tg.X, tg.Y, tg.Z)
		for i := range tpos {
			var want Force
			for k := range srcPos {
				want.Add(PP(tpos[i], srcPos[k], srcM[k], tc.eps2))
			}
			nacc, npot := ppNorm(tpos[i].X, tpos[i].Y, tpos[i].Z, &src, tc.eps2, span)
			got := vec.V3{X: tg.AX[i], Y: tg.AY[i], Z: tg.AZ[i]}
			if !withinTol(got.Sub(want.Acc).Norm(), want.Acc.Norm(), nacc) {
				t.Fatalf("nt=%d ns=%d target %d: acc %v != %v", tc.nt, tc.ns, i, got, want.Acc)
			}
			if !withinTol(math.Abs(tg.Pot[i]-want.Pot), math.Abs(want.Pot), npot) {
				t.Fatalf("nt=%d ns=%d target %d: pot %v != %v", tc.nt, tc.ns, i, tg.Pot[i], want.Pot)
			}
		}
	}
}

func TestPCBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct {
		nt, ns int
	}{
		{1, 1}, {5, 41}, {64, 256}, {4, 0}, {0, 9},
	} {
		tpos, tg := randTargets(rng, tc.nt)
		var src PCSoA
		cells := make([]Multipole, tc.ns)
		for k := range cells {
			cells[k] = Multipole{
				COM: vec.V3{X: 4 + rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()},
				M:   rng.Float64(),
				Quad: vec.Outer(0.1+rng.Float64(), vec.V3{
					X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64(),
				}),
			}
			// Sprinkle zero-mass cells: the traversal skips them, but the
			// kernel must handle them gracefully if gathered (zero force).
			if k%7 == 3 {
				cells[k].M = 0
				cells[k].Quad = vec.Sym3{}
			}
			src.Append(cells[k])
		}

		const eps2 = 1e-4
		PCBatch(tg.X, tg.Y, tg.Z, &src, eps2, tg.AX, tg.AY, tg.AZ, tg.Pot)

		span := kernelSpan(tg.X, tg.Y, tg.Z)
		for i := range tpos {
			var want Force
			for k := range cells {
				want.Add(PC(tpos[i], cells[k], eps2))
			}
			nacc, npot := pcNorm(tpos[i].X, tpos[i].Y, tpos[i].Z, &src, eps2, span)
			got := vec.V3{X: tg.AX[i], Y: tg.AY[i], Z: tg.AZ[i]}
			if !withinTol(got.Sub(want.Acc).Norm(), want.Acc.Norm(), nacc) {
				t.Fatalf("nt=%d ns=%d target %d: acc %v != %v", tc.nt, tc.ns, i, got, want.Acc)
			}
			if !withinTol(math.Abs(tg.Pot[i]-want.Pot), math.Abs(want.Pot), npot) {
				t.Fatalf("nt=%d ns=%d target %d: pot %v != %v", tc.nt, tc.ns, i, tg.Pot[i], want.Pot)
			}
		}
	}
}

func TestBatchAccumulatesAcrossCalls(t *testing.T) {
	// A second batch call must add to, not overwrite, the accumulators —
	// the walk evaluates PC then PP into the same target scratch.
	rng := rand.New(rand.NewSource(13))
	tpos, tg := randTargets(rng, 8)
	var pp PPSoA
	pp.Append(vec.V3{X: 2}, 1.5)
	var pc PCSoA
	pc.Append(Multipole{COM: vec.V3{Y: 3}, M: 2})

	const eps2 = 0.01
	PCBatch(tg.X, tg.Y, tg.Z, &pc, eps2, tg.AX, tg.AY, tg.AZ, tg.Pot)
	PPBatch(tg.X, tg.Y, tg.Z, &pp, eps2, tg.AX, tg.AY, tg.AZ, tg.Pot)

	span := kernelSpan(tg.X, tg.Y, tg.Z)
	for i := range tpos {
		var want Force
		want.Add(PC(tpos[i], Multipole{COM: vec.V3{Y: 3}, M: 2}, eps2))
		want.Add(PP(tpos[i], vec.V3{X: 2}, 1.5, eps2))
		nc, _ := pcNorm(tpos[i].X, tpos[i].Y, tpos[i].Z, &pc, eps2, span)
		np, _ := ppNorm(tpos[i].X, tpos[i].Y, tpos[i].Z, &pp, eps2, span)
		got := vec.V3{X: tg.AX[i], Y: tg.AY[i], Z: tg.AZ[i]}
		if !withinTol(got.Sub(want.Acc).Norm(), want.Acc.Norm(), nc+np) {
			t.Fatalf("target %d: acc %v != %v", i, got, want.Acc)
		}
	}
}

func TestTargetsGatherScatter(t *testing.T) {
	pos := []vec.V3{{X: 1, Y: 2, Z: 3}, {X: -4, Y: 5, Z: -6}}
	var tg Targets
	tg.Gather(pos)
	if tg.X[1] != -4 || tg.Y[0] != 2 || tg.Pot[1] != 0 {
		t.Fatalf("gather wrong: %+v", tg)
	}
	tg.AX[0], tg.Pot[0] = 2, -7
	acc := []vec.V3{{X: 1}, {}}
	pot := []float64{1, 0}
	tg.Scatter(acc, pot)
	if acc[0].X != 3 || pot[0] != -6 || acc[1] != (vec.V3{}) {
		t.Fatalf("scatter wrong: %v %v", acc, pot)
	}
	// Re-gather must zero stale accumulators.
	tg.Gather(pos)
	if tg.AX[0] != 0 || tg.Pot[0] != 0 {
		t.Fatal("gather did not zero accumulators")
	}
}

func TestStatsGflops(t *testing.T) {
	s := Stats{PP: 1_000_000, PC: 0}
	// 23 Mflop in 23 ms → 1 Gflop/s.
	if got := s.Gflops(23_000_000); math.Abs(got-1) > 1e-12 {
		t.Errorf("Gflops = %v, want 1", got)
	}
	if got := s.Gflops(0); got != 0 {
		t.Errorf("Gflops at zero duration = %v, want 0", got)
	}
}

func TestStatsAddAtomic(t *testing.T) {
	var s Stats
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 100; i++ {
				s.AddAtomic(Stats{PP: 1, PC: 2})
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if s.PP != 400 || s.PC != 800 {
		t.Fatalf("AddAtomic lost updates: %+v", s)
	}
}
