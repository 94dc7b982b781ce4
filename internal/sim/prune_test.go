package sim

import (
	"math"
	"math/rand"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/grav"
	"bonsai/internal/vec"
)

// clusteredBlobs places nBlobs Gaussian balls on a widely spaced grid — the
// geometry the coarse global tree prunes hardest: most rank pairs are far
// enough apart that a K-level prefix satisfies the MAC.
func clusteredBlobs(nBlobs, perBlob int, seed int64) []body.Particle {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]body.Particle, 0, nBlobs*perBlob)
	id := int64(0)
	for b := 0; b < nBlobs; b++ {
		c := vec.V3{
			X: float64(b%4) * 40,
			Y: float64((b/4)%4) * 40,
			Z: float64(b/16) * 40,
		}
		for i := 0; i < perBlob; i++ {
			parts = append(parts, body.Particle{
				Pos: c.Add(vec.V3{
					X: rng.NormFloat64(),
					Y: rng.NormFloat64(),
					Z: rng.NormFloat64(),
				}),
				Vel:  vec.V3{X: 0.01 * rng.NormFloat64(), Y: 0.01 * rng.NormFloat64(), Z: 0.01 * rng.NormFloat64()},
				Mass: 1.0 / float64(nBlobs*perBlob),
				ID:   id,
			})
			id++
		}
	}
	return parts
}

// uniformCube fills a unit cube uniformly — the IC with the least coarse-tree
// structure, exercising the prune decision on near-degenerate geometry.
func uniformCube(n int, seed int64) []body.Particle {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]body.Particle, n)
	for i := range parts {
		parts[i] = body.Particle{
			Pos:  vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()},
			Mass: 1.0 / float64(n),
			ID:   int64(i),
		}
	}
	return parts
}

// accOf runs one force evaluation and returns the accelerations in original
// particle order.
func accOf(t *testing.T, cfg Config, parts []body.Particle) []vec.V3 {
	t.Helper()
	s, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.ComputeForces()
	acc, _ := s.Accelerations()
	return acc
}

// TestGlobalTreePruneBitwiseSerial is the correctness gate of the exchange
// pruning: under SerialLET (deterministic walk order) a run that serves
// distant pairs from the shared coarse global tree must reproduce the
// unpruned all-pairs exchange bit-for-bit, because a coarse tree judged
// Sufficient is a bit-exact prefix of the boundary tree it replaces and the
// MAC walk never descends past the cut.
func TestGlobalTreePruneBitwiseSerial(t *testing.T) {
	type tc struct {
		name  string
		ranks int
		parts []body.Particle
	}
	cases := []tc{
		{"4ranks-blobs", 4, clusteredBlobs(4, 300, 1)},
		{"16ranks-blobs", 16, clusteredBlobs(16, 150, 2)},
		{"64ranks-blobs", 64, clusteredBlobs(32, 80, 3)},
		{"4ranks-uniform", 4, uniformCube(1200, 4)},
		{"16ranks-uniform", 16, uniformCube(2400, 5)},
		{"64ranks-uniform", 64, uniformCube(4000, 6)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := Config{
				Ranks: c.ranks, WorkersPerRank: 1, Theta: 0.4, Eps: 0.05,
				DomainFreq: 1, SerialLET: true,
			}
			want := accOf(t, base, c.parts)
			for _, k := range []int{2, 3, 4} {
				pruned := base
				pruned.GlobalTree = k
				got := accOf(t, pruned, c.parts)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("K=%d: acc[%d] = %v, want %v (must be bitwise)", k, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestGlobalTreePruneOverlapRMS: the overlapped mode walks remote trees in
// arrival order, so bitwise equality is out of reach by design — but pruning
// must stay within float-reassociation noise of the unpruned serial baseline.
func TestGlobalTreePruneOverlapRMS(t *testing.T) {
	parts := clusteredBlobs(16, 200, 7)
	base := Config{
		Ranks: 16, WorkersPerRank: 2, Theta: 0.4, Eps: 0.05,
		DomainFreq: 1, SerialLET: true,
	}
	want := accOf(t, base, parts)
	t.Run("pipelined", func(t *testing.T) {
		cfg := base
		cfg.SerialLET = false
		cfg.GlobalTree = 3
		got := accOf(t, cfg, parts)
		var sum2, ref2 float64
		for i := range want {
			sum2 += got[i].Sub(want[i]).Norm2()
			ref2 += want[i].Norm2()
		}
		if rms := math.Sqrt(sum2 / ref2); rms > grav.KernelTol() {
			t.Errorf("pipelined overlap with pruning diverged: rms %v", rms)
		}
	})
}

// TestGlobalTreePruneTrajectoriesBitwise integrates several steps (domain
// exchanges, tree rebuilds, re-extracted coarse trees every step) and demands
// bit-identical trajectories, including through the block-timestep driver.
func TestGlobalTreePruneTrajectoriesBitwise(t *testing.T) {
	parts := clusteredBlobs(16, 120, 8)
	base := Config{
		Ranks: 16, WorkersPerRank: 1, Theta: 0.4, Eps: 0.05,
		DT: 1e-3, DomainFreq: 1, SerialLET: true,
	}
	for _, blk := range []bool{false, true} {
		name := "leapfrog"
		if blk {
			name = "blocksteps"
		}
		t.Run(name, func(t *testing.T) {
			cfgA := base
			cfgA.BlockSteps = blk
			cfgB := cfgA
			cfgB.GlobalTree = 3
			a, err := New(cfgA, parts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(cfgB, parts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				a.Step()
				b.Step()
				exactlyEqual(t, b.Particles(), a.Particles(), name)
			}
		})
	}
}

// TestGlobalTreePruneCounters: with well-separated blobs the coarse tree must
// actually serve pairs (the prune fires), and the counters must be coherent.
func TestGlobalTreePruneCounters(t *testing.T) {
	parts := clusteredBlobs(16, 150, 9)
	s, err := New(Config{
		Ranks: 16, WorkersPerRank: 1, Theta: 0.4, Eps: 0.05,
		DomainFreq: 1, SerialLET: true, GlobalTree: 3,
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	st := s.ComputeForces()
	p := 16
	slots := st.GlobalServed + st.BoundarySent
	if slots != p*(p-1) {
		t.Fatalf("served (%d) + boundary-sent (%d) = %d, want every pair slot %d",
			st.GlobalServed, st.BoundarySent, slots, p*(p-1))
	}
	if st.GlobalServed == 0 {
		t.Fatal("no pair served from the global tree on well-separated blobs")
	}
	if st.BoundarySent >= p*(p-1) {
		t.Fatalf("boundary sends %d not reduced below all-pairs %d", st.BoundarySent, p*(p-1))
	}
	if f := st.GlobalServedFrac; f <= 0 || f > 1 || math.Abs(f-float64(st.GlobalServed)/float64(slots)) > 1e-12 {
		t.Fatalf("served fraction %v inconsistent with %d/%d", f, st.GlobalServed, slots)
	}
	if st.GlobBytes <= 0 {
		t.Fatal("coarse-tree exchange reported zero bytes")
	}

	// Unpruned baseline for comparison: every slot is a boundary send.
	s2, err := New(Config{
		Ranks: 16, WorkersPerRank: 1, Theta: 0.4, Eps: 0.05,
		DomainFreq: 1, SerialLET: true,
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	st2 := s2.ComputeForces()
	if st2.BoundarySent != p*(p-1) || st2.GlobalServed != 0 {
		t.Fatalf("baseline counters off: sent %d served %d", st2.BoundarySent, st2.GlobalServed)
	}
}

// FuzzPruneEquivalence fuzzes the bitwise gate: random clouds, rank counts,
// and coarse depths must keep the pruned serial exchange identical to the
// unpruned one.
func FuzzPruneEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(2), true)
	f.Add(int64(2), uint8(1), uint8(3), true)
	f.Add(int64(3), uint8(0), uint8(1), false)
	f.Add(int64(4), uint8(1), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, rsel, ksel uint8, clustered bool) {
		ranks := []int{4, 16}[int(rsel)%2]
		k := 1 + int(ksel)%3
		size := int(seed % 7)
		if size < 0 {
			size = -size
		}
		var parts []body.Particle
		if clustered {
			parts = clusteredBlobs(ranks, 40+size*20, seed)
		} else {
			parts = uniformCube(600+size*100, seed)
		}
		base := Config{
			Ranks: ranks, WorkersPerRank: 1, Theta: 0.4, Eps: 0.05,
			DomainFreq: 1, SerialLET: true,
		}
		want := accOf(t, base, parts)
		pruned := base
		pruned.GlobalTree = k
		got := accOf(t, pruned, parts)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ranks=%d K=%d clustered=%v: acc[%d] = %v, want %v",
					ranks, k, clustered, i, got[i], want[i])
			}
		}
	})
}
