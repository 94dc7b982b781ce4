package main

// probeLettree reduces replayed evaluations to the lettree metrics: the self
// time of each lettree span summed over ranks and peers, taken as the median
// over the replays, and the exact counts of the last one. The calls
// themselves (lettree.BoundaryTree, Sufficient, BuildFor, Marshal, Unmarshal,
// Walk) are made by replay. A single-rank workload exchanges nothing and
// reports zeros.
func probeLettree(m *metricSet, evals []map[string]float64, last replayResult) {
	sec := func(name string) float64 {
		v := make([]float64, len(evals))
		for i, e := range evals {
			v[i] = e[name]
		}
		return median(v)
	}
	m.set("lettree.boundary_s", sec("lettree.boundary"))
	m.set("lettree.buildfor_s", sec("lettree.buildfor"))
	walk := sec("lettree.walk")
	m.set("lettree.walk_s", walk)
	m.set("lettree.walk_gflops", ratio(last.Remote.Flops()/1e9, walk))
	mb := float64(last.LETBytes) / 1e6
	m.set("lettree.marshal_mb_s", ratio(mb, sec("lettree.marshal")))
	m.set("lettree.unmarshal_mb_s", ratio(mb, sec("lettree.unmarshal")))
	m.set("lettree.let_kb", ratio(float64(last.LETBytes)/1e3, float64(last.Pairs-last.Sufficient)))
	m.set("lettree.boundary_kb", ratio(float64(last.BoundaryBytes)/1e3, float64(last.Ranks)))
	m.set("lettree.sufficient_frac", ratio(float64(last.Sufficient), float64(last.Pairs)))
	m.set("lettree.forced_accepts", float64(last.ForcedAccepts))
}
