package octree

import (
	"testing"

	"bonsai/internal/grav"
	"bonsai/internal/vec"
)

// BenchmarkWalkGather splits the tree-walk into its non-kernel parts so the
// bookkeeping cost is measurable on its own: Traverse runs only the MAC
// traversal of the preorder view (Collect: the scan plus the particle-index
// expansion), TraverseGather runs the walk's own per-group Walker.Gather (the
// scan plus the sized SoA copies) and the target gather/scatter, and Full is
// the complete walk including the force kernels. Full minus TraverseGather is
// pure kernel time; TraverseGather minus Traverse is the gather/scatter
// overhead the block timestep's subset walks pay once per active group. The
// tree and groups have the program's sizes, DefaultNLeaf and DefaultNGroup.
func BenchmarkWalkGather(b *testing.B) {
	pos, mass := clusteredCloud(100_000, 1)
	tr, _ := BuildFrom(pos, mass, DefaultNLeaf, 0)
	groups := tr.MakeGroups(DefaultNGroup)
	n := tr.NumParticles()
	targetsPerGroup := float64(n) / float64(len(groups))
	acc := make([]vec.V3, n)
	pot := make([]float64, n)

	b.Run("Traverse", func(b *testing.B) {
		var lists WalkLists
		var inter int64
		for i := 0; i < b.N; i++ {
			inter = 0
			for g := range groups {
				tr.Collect(groups[g].Box, 0.4, &lists)
				inter += int64(len(lists.CellIdx) + len(lists.PartIdx))
			}
		}
		b.ReportMetric(float64(inter)/float64(len(groups)), "list-len/group")
		b.ReportMetric(targetsPerGroup, "targets/group")
	})

	b.Run("TraverseGather", func(b *testing.B) {
		var w Walker
		cells := tr.WalkView(0.4)
		for i := 0; i < b.N; i++ {
			for g := range groups {
				w.Gather(tr, cells, groups[g].Box)
				lo, hi := groups[g].Start, groups[g].Start+groups[g].N
				w.tg.Gather(tr.Pos[lo:hi])
				w.tg.Scatter(acc[lo:hi], pot[lo:hi])
			}
		}
		b.ReportMetric(targetsPerGroup, "targets/group")
	})

	b.Run("Full", func(b *testing.B) {
		var st grav.Stats
		for i := 0; i < b.N; i++ {
			for j := range acc {
				acc[j] = vec.V3{}
				pot[j] = 0
			}
			tr.Walk(groups, tr.Pos, 0.4, 1e-4, acc, pot, 0, &st)
		}
		b.ReportMetric(st.Flops()/float64(b.N)/1e9, "Gflop/op")
		b.ReportMetric(targetsPerGroup, "targets/group")
	})
}
