package sim

import (
	"math/rand"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/grav"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// remotePassP64 sets up the batched remote walk of one rank of a 64-rank
// clustered run (64 cold Gaussian blobs of 500 particles on an 8×8 grid of
// spacing 40, the end-to-end benchmark's blobs_p64 geometry): the rank's
// target groups and its 63 remote trees, each peer's boundary tree where that
// suffices and the full LET built for the rank otherwise.
func remotePassP64(b *testing.B) (r *rank, srcs []octree.Source) {
	const p, per, me = 64, 500, 27
	rng := rand.New(rand.NewSource(1))
	parts := make([]body.Particle, 0, p*per)
	for bl := 0; bl < p; bl++ {
		for i := 0; i < per; i++ {
			parts = append(parts, body.Particle{
				Pos:  vec.V3{X: float64(bl%8)*40 + rng.NormFloat64(), Y: float64(bl/8)*40 + rng.NormFloat64(), Z: rng.NormFloat64()},
				Mass: 1 / float64(p*per),
				ID:   int64(len(parts)),
			})
		}
	}
	s, err := New(Config{Ranks: p, WorkersPerRank: 1, Theta: 0.4, Softening: 0.05}, parts)
	if err != nil {
		b.Fatal(err)
	}
	s.ComputeForces()
	s.ComputeForces() // domains settled on measured work
	bts, lets := peerTrees(s, me)
	for j := range bts {
		switch {
		case j == me:
		case lets[j] != nil:
			srcs = append(srcs, lets[j])
		default:
			srcs = append(srcs, bts[j])
		}
	}
	return s.nodes[me].r, srcs
}

// BenchmarkWalkRemote_P64 is one batched pass: every group of the rank
// against one list merged over the 63 remote trees.
func BenchmarkWalkRemote_P64(b *testing.B) {
	r, srcs := remotePassP64(b)
	acc, pot := make([]vec.V3, len(r.pos)), make([]float64, len(r.pos))
	var st grav.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := octree.WalkSources(srcs, r.groups, r.pos, r.cfg.Theta, r.cfg.Softening*r.cfg.Softening, acc, pot, 1, &st); f != 0 {
			b.Fatalf("%d forced accepts", f)
		}
	}
	b.ReportMetric(st.Gflops(b.Elapsed()), "Gflop/s")
	b.ReportMetric(float64(st.PC+st.PP)/float64(b.N)/float64(len(r.pos)), "inter/particle")
}

// BenchmarkWalkRemote_P64_PerTree is the same work the way the pipeline did
// it before the ready set: one walk per remote tree, 63 short lists per group.
func BenchmarkWalkRemote_P64_PerTree(b *testing.B) {
	r, srcs := remotePassP64(b)
	acc, pot := make([]vec.V3, len(r.pos)), make([]float64, len(r.pos))
	var st grav.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			octree.WalkSource(src, r.groups, r.pos, r.cfg.Theta, r.cfg.Softening*r.cfg.Softening, acc, pot, 1, &st)
		}
	}
	b.ReportMetric(st.Gflops(b.Elapsed()), "Gflop/s")
	b.ReportMetric(float64(st.PC+st.PP)/float64(b.N)/float64(len(r.pos)), "inter/particle")
}
