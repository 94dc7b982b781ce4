package main

import (
	"bonsai"
	"bonsai/internal/grav"
	"bonsai/internal/vec"
)

// probeGrav times the two batch kernels on the workload's own particles: one
// 64-target group against a 512-source list (the SIMD blocks) and against an
// 8-source list (the short-list remainder path the per-LET walks of
// blobs_p64 live on). Calls grav.PPBatch and grav.PCBatch.
func probeGrav(m *metricSet, parts []bonsai.Particle, eps2 float64) {
	var tg grav.Targets
	tpos := make([]vec.V3, defaultNGroup)
	for i := range tpos {
		tpos[i] = v3(parts[i%len(parts)].Pos)
	}
	tg.Gather(tpos)
	for _, l := range []struct {
		n    int
		name string
	}{{512, "l512"}, {8, "l8"}} {
		var pp grav.PPSoA
		var pc grav.PCSoA
		for i := 0; i < l.n; i++ {
			s := parts[(defaultNGroup+i)%len(parts)]
			pp.Append(v3(s.Pos), s.Mass)
			pc.Append(grav.Multipole{COM: v3(s.Pos), M: s.Mass, Quad: vec.Outer(s.Mass*1e-3, v3(s.Pos))})
		}
		calls := 4096 * 8 / l.n // about 10 ms per timed repetition
		pairs := float64(calls * defaultNGroup * l.n)
		sec := medianTime(7, func() {
			for c := 0; c < calls; c++ {
				grav.PPBatch(tg.X, tg.Y, tg.Z, &pp, eps2, tg.AX, tg.AY, tg.AZ, tg.Pot)
			}
		})
		m.set("grav.pp_gflops_"+l.name, pairs*grav.FlopsPP/sec/1e9)
		sec = medianTime(7, func() {
			for c := 0; c < calls; c++ {
				grav.PCBatch(tg.X, tg.Y, tg.Z, &pc, eps2, tg.AX, tg.AY, tg.AZ, tg.Pot)
			}
		})
		m.set("grav.pc_gflops_"+l.name, pairs*grav.FlopsPC/sec/1e9)
	}
}

func v3(p bonsai.Vec3) vec.V3 { return vec.V3{X: p.X, Y: p.Y, Z: p.Z} }
