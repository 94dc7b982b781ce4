package main

import (
	"fmt"
	"time"

	"bonsai"
	"bonsai/internal/grav"
	"bonsai/internal/ic"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// printAblations measures the design-choice sweeps of DESIGN.md §5 on a
// Milky Way sample: opening angle, leaf size, group size, boundary-tree
// depth. (The serial-vs-parallel sampling ablation lives with its
// implementation: BenchmarkSampling* in internal/domain.)
func printAblations(n int) {
	section(fmt.Sprintf("ABLATIONS (DESIGN.md §5) — measured on a %d-particle Milky Way sample", n))

	parts := ic.DefaultMilkyWay().Realize(n, 1, 0)
	pos := make([]vec.V3, len(parts))
	mass := make([]float64, len(parts))
	for i, p := range parts {
		pos[i] = p.Pos
		mass[i] = p.Mass
	}

	// --- #1 opening angle.
	fmt.Println("\n#1 opening angle θ (paper §IV: cost grows toward θ⁻³; θ=0.4 chosen for disks)")
	fmt.Printf("%8s %14s %14s %12s\n", "θ", "pp/particle", "pc/particle", "Gflop/step")
	tr, _ := octree.BuildFrom(pos, mass, octree.DefaultNLeaf, 0)
	groups := tr.MakeGroups(octree.DefaultNGroup)
	acc := make([]vec.V3, len(pos))
	pot := make([]float64, len(pos))
	for _, theta := range []float64{0.2, 0.3, 0.4, 0.55, 0.7} {
		for i := range acc {
			acc[i], pot[i] = vec.V3{}, 0
		}
		var st grav.Stats
		tr.Walk(groups, tr.Pos, theta, 1e-4, acc, pot, 0, &st)
		fmt.Printf("%8.2f %14.0f %14.0f %12.2f\n", theta,
			float64(st.PP)/float64(n), float64(st.PC)/float64(n), st.Flops()/1e9)
	}

	// --- #2 NLEAF.
	fmt.Printf("\n#2 NLEAF (paper uses 16, default %d): build cost vs walk cost, NCRIT %d\n", octree.DefaultNLeaf, octree.DefaultNGroup)
	fmt.Printf("%8s %10s %12s %12s %12s\n", "NLEAF", "cells", "build [ms]", "walk [ms]", "Gflop/step")
	for _, nleaf := range []int{8, 16, 32, 64} {
		t0 := time.Now()
		tl, _ := octree.BuildFrom(pos, mass, nleaf, 0)
		build := time.Since(t0)
		gl := tl.MakeGroups(octree.DefaultNGroup)
		for i := range acc {
			acc[i], pot[i] = vec.V3{}, 0
		}
		var st grav.Stats
		t1 := time.Now()
		tl.Walk(gl, tl.Pos, 0.4, 1e-4, acc, pot, 0, &st)
		walk := time.Since(t1)
		fmt.Printf("%8d %10d %12.1f %12.1f %12.2f\n",
			nleaf, len(tl.Cells), build.Seconds()*1e3, walk.Seconds()*1e3, st.Flops()/1e9)
	}

	// --- #3 group size NCRIT.
	fmt.Printf("\n#3 group size NCRIT (paper uses 64, default %d; target groups share one interaction list), NLEAF %d\n", octree.DefaultNGroup, octree.DefaultNLeaf)
	fmt.Printf("%8s %10s %14s %14s %14s %12s\n", "NCRIT", "groups", "targets/group", "pp/particle", "pc/particle", "walk [ms]")
	for _, ng := range []int{16, 64, 128, 256} {
		gl := tr.MakeGroups(ng)
		for i := range acc {
			acc[i], pot[i] = vec.V3{}, 0
		}
		var st grav.Stats
		t1 := time.Now()
		tr.Walk(gl, tr.Pos, 0.4, 1e-4, acc, pot, 0, &st)
		walk := time.Since(t1)
		fmt.Printf("%8d %10d %14.1f %14.0f %14.0f %12.1f\n", ng, len(gl), float64(n)/float64(len(gl)),
			float64(st.PP)/float64(n), float64(st.PC)/float64(n), walk.Seconds()*1e3)
	}
	fmt.Println("(bigger groups share lists — fewer traversals — but force more p-p work;")
	fmt.Println(" NCRIT is an upper bound the cut fills by packing sibling cells, and each")
	fmt.Println(" group pays one traversal and one gather whatever it holds)")

	// --- #4 boundary-tree depth.
	fmt.Println("\n#4 boundary-tree depth (LET-exchange traffic vs boundary-only coverage, 4 ranks)")
	fmt.Printf("%8s %14s %12s %12s\n", "depth", "boundaryUsed", "LETs sent", "step MB")
	bp := parts[:min(len(parts), 24000)]
	for _, depth := range []int{2, 4, 6} {
		s, err := bonsai.New(bonsai.Config{
			Ranks: 4, Theta: 0.4,
			Softening:     bonsai.SofteningForN(len(bp)),
			BoundaryDepth: depth,
			GravConst:     bonsai.G,
		}, bp)
		if err != nil {
			panic(err)
		}
		s.ComputeForces()
		st := s.ComputeForces()
		fmt.Printf("%8d %14d %12d %12.2f\n",
			depth, st.BoundaryUsed, st.LETsSent, float64(st.BytesSent)/1e6)
	}
	fmt.Println("(deeper boundary trees cost more in the all-pairs push but let distant rank")
	fmt.Println(" pairs skip full LETs entirely — the paper's two-purpose reuse, §III.B.2)")
}
