package octree

import (
	"fmt"
	"testing"

	"bonsai/internal/keys"
	"bonsai/internal/vec"
)

// BenchmarkTreePipeline times the per-rank tree pipeline phases — structure
// build, multipole properties, group building, and the three chained ("full")
// — at 1 and 8 workers, over pre-sorted inputs with warm scratch, mirroring a
// rank's steady-state step. The build is serial at any worker count (its w=8
// row adds the properties-partition cut); properties and groups fan out. On a
// single-core host the w=8 rows only measure scheduling overhead.
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
