package main

import (
	"bonsai"
	"bonsai/internal/grav"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// probeOctree times every stage of one tree over the whole particle set on
// one worker: the walk rung of the ladder, set against the kernel rung
// probeGrav measured before it. Calls octree.BuildFrom, ComputeProperties,
// RefreshProperties, MakeGroups, Collect and Walk.
func probeOctree(m *metricSet, parts []bonsai.Particle, theta, eps2 float64) {
	n := len(parts)
	pos, mass := make([]vec.V3, n), make([]float64, n)
	for i, p := range parts {
		pos[i], mass[i] = v3(p.Pos), p.Mass
	}
	var tree *octree.Tree
	m.set("octree.build_s", medianTime(5, func() { tree, _ = octree.BuildFrom(pos, mass, defaultNLeaf, 1) }))
	m.set("octree.props_s", medianTime(5, tree.ComputeProperties))
	m.set("octree.refresh_s", medianTime(5, func() { tree.RefreshProperties(1) }))
	var groups []octree.Group
	m.set("octree.groups_s", medianTime(5, func() { groups = tree.MakeGroups(defaultNGroup) }))

	var lists octree.WalkLists
	var listLen int
	m.set("octree.traverse_s", medianTime(3, func() {
		listLen = 0
		for _, g := range groups {
			tree.Collect(g.Box, theta, &lists)
			listLen += len(lists.CellIdx) + len(lists.PartIdx)
		}
	}))
	m.set("octree.list_len_mean", ratio(float64(listLen), float64(len(groups))))

	acc, pot := make([]vec.V3, n), make([]float64, n)
	var st grav.Stats
	walk := medianTime(3, func() {
		st = grav.Stats{}
		tree.Walk(groups, tree.Pos, theta, eps2, acc, pot, 1, &st)
	})
	m.set("octree.walk_s", walk)
	m.set("octree.walk_gflops", st.Flops()/walk/1e9)
	m.set("octree.pp_per_particle", float64(st.PP)/float64(n))
	m.set("octree.pc_per_particle", float64(st.PC)/float64(n))
	kernel := float64(st.PP)*grav.FlopsPP/m.vals["grav.pp_gflops_l512"] + float64(st.PC)*grav.FlopsPC/m.vals["grav.pc_gflops_l512"]
	m.set("ladder.kernel_over_walk", kernel/1e9/walk)
}
