package sim

import (
	"testing"

	"bonsai/internal/octree"
)

// TestWorkerCountBitwiseInvariance is the end-to-end determinism guarantee
// for the multicore tree pipeline: a single-rank simulation stepped with 8
// workers per rank must produce bitwise-identical accelerations, potentials
// and trajectories to the serial (1-worker) run. The particle count exceeds
// the parallel-build threshold, so the concurrent subtree constructor, the
// parallel property sweep, group building, and the chunked sort/key loops are
// all genuinely exercised on the 8-worker side.
func TestWorkerCountBitwiseInvariance(t *testing.T) {
	parts := plummer(20_000, 5)

	run := func(workers int) *Simulation {
		s, err := New(Config{Ranks: 1, Theta: 0.5, Softening: 0.05, WorkersPerRank: workers}, parts)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(2)
		return s
	}
	s1, s8 := run(1), run(8)

	a1, p1 := s1.Accelerations()
	a8, p8 := s8.Accelerations()
	for i := range a1 {
		if a1[i] != a8[i] || p1[i] != p8[i] {
			t.Fatalf("particle %d: acc/pot differ between 1 and 8 workers: %v/%v vs %v/%v",
				i, a1[i], p1[i], a8[i], p8[i])
		}
	}
	q1, q8 := s1.Particles(), s8.Particles()
	for i := range q1 {
		if q1[i].Pos != q8[i].Pos || q1[i].Vel != q8[i].Vel {
			t.Fatalf("particle %d: trajectory differs between 1 and 8 workers", i)
		}
	}
}

// TestSteadyStateTreePhasesAllocFree: once a rank's scratch is warm, the
// sort, tree-build, property, and group phases of a step allocate nothing at
// workers=1 — the per-step buffers (keys, sorter, reorder target, cells,
// groups) are all owned by the rank and reused.
func TestSteadyStateTreePhasesAllocFree(t *testing.T) {
	parts := plummer(20_000, 7)
	s, err := New(Config{Ranks: 1, Theta: 0.5, Softening: 0.05, WorkersPerRank: 1}, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(3) // warm every per-step buffer, including post-exchange sizes

	r := s.nodes[0].r
	if a := testing.AllocsPerRun(5, func() {
		r.sortBuild()
		r.tree.ComputePropertiesParallel(r.cfg.WorkersPerRank)
		r.groups = r.tree.MakeGroupsScratch(octree.DefaultNGroup, r.cfg.WorkersPerRank, r.groups)
	}); a != 0 {
		t.Errorf("steady-state sort/tree/groups phases allocated %v per step, want 0", a)
	}
}
