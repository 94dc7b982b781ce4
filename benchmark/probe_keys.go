package main

import (
	"bonsai"
	"bonsai/internal/keys"
	"bonsai/internal/psort"
	"bonsai/internal/vec"
)

// probeKeys times the two space-filling-curve encoders and the radix sort on
// the workload's particles. Calls keys.NewGrid, HilbertOf, MortonOf and
// psort.Sort.
func probeKeys(m *metricSet, parts []bonsai.Particle) {
	n := len(parts)
	pos := make([]vec.V3, n)
	box := vec.EmptyBox()
	for i, p := range parts {
		pos[i] = v3(p.Pos)
		box = box.Extend(pos[i])
	}
	grid := keys.NewGrid(box)
	kv := make([]psort.KV, n)
	var sink keys.Key
	m.set("keys.hilbert_ns", 1e9/float64(n)*medianTime(5, func() {
		for _, v := range pos {
			sink ^= grid.HilbertOf(v)
		}
	}))
	m.set("keys.morton_ns", 1e9/float64(n)*medianTime(5, func() {
		for i, v := range pos {
			kv[i] = psort.KV{Key: uint64(grid.MortonOf(v)), Idx: int32(i)}
		}
	}))
	_ = sink
	unsorted := append([]psort.KV(nil), kv...)
	sec := medianTime(5, func() {
		copy(kv, unsorted)
		psort.Sort(kv, 1)
	})
	m.set("psort.sort_mkeys_s", float64(n)/sec/1e6)
}
