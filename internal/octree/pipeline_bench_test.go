package octree

import (
	"fmt"
	"testing"

	"bonsai/internal/keys"
	"bonsai/internal/psort"
	"bonsai/internal/vec"
)

// BenchmarkTreePipeline times the per-rank tree pipeline phases — structure
// build, multipole properties, group building, and the three chained ("full")
// — serial vs parallel, over pre-sorted inputs with warm scratch, mirroring a
// rank's steady-state step. Speedup at workers=8 over workers=1 is the
// tentpole acceptance number; on a single-core host the parallel variants
// only measure scheduling overhead.
func BenchmarkTreePipeline(b *testing.B) {
	type input struct {
		ks   []keys.Key
		pos  []vec.V3
		mass []float64
		grid keys.Grid
	}
	inputs := map[int]*input{}
	get := func(n int) *input {
		if in, ok := inputs[n]; ok {
			return in
		}
		ks, pos, mass, grid := sortedCloud(n, 11, true)
		in := &input{ks, pos, mass, grid}
		inputs[n] = in
		return in
	}

	for _, n := range []int{10_000, 100_000, 1_000_000} {
		for _, workers := range []int{1, 8} {
			in := get(n)
			tag := fmt.Sprintf("n=%d/w=%d", n, workers)

			b.Run("build/"+tag, func(b *testing.B) {
				var sc BuildScratch
				BuildStructureScratch(&sc, in.ks, in.pos, in.mass, in.grid, 16, workers)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					BuildStructureScratch(&sc, in.ks, in.pos, in.mass, in.grid, 16, workers)
				}
			})
			b.Run("props/"+tag, func(b *testing.B) {
				var sc BuildScratch
				tr := BuildStructureScratch(&sc, in.ks, in.pos, in.mass, in.grid, 16, workers)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tr.ComputePropertiesParallel(workers)
				}
			})
			b.Run("groups/"+tag, func(b *testing.B) {
				var sc BuildScratch
				tr := BuildStructureScratch(&sc, in.ks, in.pos, in.mass, in.grid, 16, workers)
				tr.ComputePropertiesParallel(workers)
				var groups []Group
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					groups = tr.MakeGroupsScratch(64, workers, groups)
				}
				b.ReportMetric(float64(len(in.pos))/float64(len(groups)), "targets/group")
			})
			b.Run("full/"+tag, func(b *testing.B) {
				var sc BuildScratch
				var groups []Group
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tr := BuildStructureScratch(&sc, in.ks, in.pos, in.mass, in.grid, 16, workers)
					tr.ComputePropertiesParallel(workers)
					groups = tr.MakeGroupsScratch(64, workers, groups)
				}
			})
		}
	}
}

// BenchmarkSortBuildFused times the fused MSD sort+build against the
// separate psort.Sort + permute + BuildStructureScratch path over identical
// unsorted inputs with warm scratch. The fused/separate delta at each
// (n, workers) point is the tentpole acceptance number of the fusion PR.
func BenchmarkSortBuildFused(b *testing.B) {
	inputs := map[int]*fusedHarness{}
	get := func(n int) *fusedHarness {
		if h, ok := inputs[n]; ok {
			return h
		}
		h := newFusedHarness(n, 11, true)
		inputs[n] = h
		return h
	}

	for _, n := range []int{10_000, 100_000, 1_000_000} {
		for _, workers := range []int{1, 8} {
			h := get(n)
			tag := fmt.Sprintf("n=%d/w=%d", n, workers)

			b.Run("fused/"+tag, func(b *testing.B) {
				h.run(workers) // warm scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h.run(workers)
				}
			})
			b.Run("separate/"+tag, func(b *testing.B) {
				// The same work split the old way: full LSD sort, payload
				// permute, then the binary-search parallel build.
				kv := make([]psort.KV, n)
				var srt psort.Sorter
				var sc BuildScratch
				run := func() {
					copy(kv, h.orig)
					srt.Sort(kv, workers)
					for i, e := range kv {
						h.ks[i] = keys.Key(e.Key)
						h.sp[i] = h.pos[e.Idx]
						h.sm[i] = h.mass[e.Idx]
					}
					BuildStructureScratch(&sc, h.ks, h.sp, h.sm, h.grid, 16, workers)
				}
				run() // warm scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
			})
		}
	}
}
