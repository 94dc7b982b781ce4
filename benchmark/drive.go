package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bonsai"
)

// driver runs one workload through the public facade: either an in-process
// Simulation or, for Unix workloads, one NodeSimulation per rank over an
// all-local unix-socket world. Step, Energy and checkpoint are barriers: every
// rank is released together and the call returns when all have.
type driver struct {
	sim *bonsai.Simulation

	world *bonsai.World
	nodes []*bonsai.NodeSimulation
	dir   string // socket and checkpoint directory of a Unix driver
	count []int  // particles per rank after the last Step of a Unix driver
}

// newDriver builds the workload's program instance. scratch is a directory
// inside the checkout; socket paths stay relative so they fit sun_path.
func newDriver(w workload, cfg bonsai.Config, parts []bonsai.Particle, scratch string) (*driver, error) {
	if !w.Unix {
		s, err := bonsai.New(cfg, parts)
		if err != nil {
			return nil, err
		}
		return &driver{sim: s}, nil
	}
	dir, err := os.MkdirTemp(scratch, "unix-")
	if err != nil {
		return nil, err
	}
	addrs := make([]string, cfg.Ranks)
	local := make([]int, cfg.Ranks)
	for r := range addrs {
		addrs[r] = filepath.Join(dir, fmt.Sprintf("r%d.sock", r))
		local[r] = r
	}
	world, err := bonsai.NewSocketWorld(cfg.Ranks, "unix", addrs, local)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &driver{world: world, dir: dir}
	for r := 0; r < cfg.Ranks; r++ {
		n, err := bonsai.NewNodeSimulation(cfg, world, r, bonsai.SliceForRank(parts, r, cfg.Ranks))
		if err != nil {
			d.Close()
			return nil, err
		}
		d.nodes = append(d.nodes, n)
	}
	return d, nil
}

// Close releases the socket world and its directory.
func (d *driver) Close() {
	if d.world != nil {
		d.world.Close()
		os.RemoveAll(d.dir)
	}
}

// eachNode runs fn on every node concurrently and waits for all of them.
func (d *driver) eachNode(fn func(r int, n *bonsai.NodeSimulation)) {
	var wg sync.WaitGroup
	for r, n := range d.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(r, n)
		}()
	}
	wg.Wait()
}

// Step advances one step and returns the statistics folded over all ranks.
func (d *driver) Step() bonsai.StepStats {
	if d.sim != nil {
		return d.sim.Step()
	}
	per := make([]bonsai.StepStats, len(d.nodes))
	d.eachNode(func(r int, n *bonsai.NodeSimulation) { per[r] = n.Step() })
	d.count = d.count[:0]
	for _, s := range per {
		d.count = append(d.count, s.N)
	}
	return mergeRankStats(per)
}

// RankCounts reports the particle count per rank after the last Step.
func (d *driver) RankCounts() []int {
	if d.sim != nil {
		return d.sim.RankCounts()
	}
	return d.count
}

func (d *driver) Energy() (kin, pot float64) {
	if d.sim != nil {
		return d.sim.Energy()
	}
	d.eachNode(func(r int, n *bonsai.NodeSimulation) {
		k, p := n.Energy()
		if r == 0 {
			kin, pot = k, p
		}
	})
	return kin, pot
}

// Particles gathers the global particle set ordered by ID.
func (d *driver) Particles() []bonsai.Particle {
	if d.sim != nil {
		return d.sim.Particles()
	}
	var out []bonsai.Particle
	d.eachNode(func(r int, n *bonsai.NodeSimulation) {
		if g := n.GatherParticles(0); r == 0 {
			out = g
		}
	})
	return out
}

// Checkpoint writes a distributed checkpoint (Unix drivers only).
func (d *driver) Checkpoint() error {
	errs := make([]error, len(d.nodes))
	dir := filepath.Join(d.dir, "ckpt")
	d.eachNode(func(r int, n *bonsai.NodeSimulation) { errs[r] = n.Checkpoint(dir) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeRankStats folds the single-rank views NodeSimulation.Step returns into
// the shape Simulation.Step reports: phase times averaged over ranks with the
// slowest rank in MaxTimes, counts summed, rates recomputed from the sums.
func mergeRankStats(per []bonsai.StepStats) bonsai.StepStats {
	out := per[0]
	out.Ranks = len(per)
	n := time.Duration(len(per))
	for _, s := range per[1:] {
		out.N += s.N
		addStats(&out, s)
		peak := phases(&out.MaxTimes)
		for i, d := range phases(&s.MaxTimes) {
			*peak[i] = max(*peak[i], *d)
		}
	}
	for _, d := range phases(&out.Times) {
		*d /= n
	}
	out.RecvIdle /= n
	out.OverlapFrac = ratio(float64(out.LETsOverlapped), float64(out.LETsRecv))
	out.PPPerParticle = ratio(float64(out.PP), float64(out.N))
	out.PCPerParticle = ratio(float64(out.PC), float64(out.N))
	out.WalkGflops = ratio(out.Flops/1e9, (out.Times.GravLocal + out.Times.GravLET).Seconds())
	out.AppGflops = ratio(out.Flops/1e9, out.MaxTimes.Total.Seconds())
	return out
}

// addStats adds the phase times and the counts of s into dst: over ranks in
// mergeRankStats, over steps in stepStats.
func addStats(dst *bonsai.StepStats, s bonsai.StepStats) {
	sum := phases(&dst.Times)
	for i, d := range phases(&s.Times) {
		*sum[i] += *d
	}
	dst.PP += s.PP
	dst.PC += s.PC
	dst.Flops += s.Flops
	dst.LETsSent += s.LETsSent
	dst.BoundaryUsed += s.BoundaryUsed
	dst.BoundarySent += s.BoundarySent
	dst.BytesSent += s.BytesSent
	dst.LETsRecv += s.LETsRecv
	dst.LETsOverlapped += s.LETsOverlapped
	dst.RecvIdle += s.RecvIdle
}

// phases lists the rows of a PhaseTimes in a fixed order.
func phases(p *bonsai.PhaseTimes) [8]*time.Duration {
	return [8]*time.Duration{
		&p.SortBuild, &p.Domain, &p.TreeProps, &p.GravLocal, &p.GravLET,
		&p.NonHiddenComm, &p.Other, &p.Total,
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
