package sim

import (
	"math"
	"slices"
	"testing"
	"time"

	"bonsai/internal/body"
	"bonsai/internal/ic"
	"bonsai/internal/mpi"
	"bonsai/internal/obs"
	"bonsai/internal/snapshot"
)

// concentrated builds a centrally concentrated Plummer model (small scale
// radius), which spreads the acceleration magnitudes over orders of
// magnitude — the IC the rung hierarchy is for.
func concentrated(n int, seed int64) []body.Particle {
	return ic.Plummer(n, 1.0, 0.1, 1.0, seed)
}

// exactlyEqual requires bitwise-identical positions and velocities.
func exactlyEqual(t *testing.T, got, want []body.Particle, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d particles, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s: particle %d: id %d vs %d", label, i, got[i].ID, want[i].ID)
		}
		if got[i].Pos != want[i].Pos || got[i].Vel != want[i].Vel {
			t.Fatalf("%s: particle %d diverged:\n pos %v vs %v\n vel %v vs %v",
				label, i, got[i].Pos, want[i].Pos, got[i].Vel, want[i].Vel)
		}
	}
}

// kdk is the oracle the one advance is held to at MaxRungs 0: the
// shared-step leapfrog written out — a priming evaluation, then per step a
// half-kick and a full drift, an evaluation, and a half-kick — over the same
// force evaluation and domain schedule (the step's epoch is skipped when the
// priming evaluation already decomposed it).
func kdk(t *testing.T, cfg Config, parts []body.Particle, steps int) []body.Particle {
	t.Helper()
	s, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.advance(func(_ int, n *Node) {
		r, dt := n.r, n.cfg.DT
		r.blockForces(0, 0, true, true, 0)
		for step := 0; step < steps; step++ {
			for i := range r.parts {
				r.parts[i].Vel = r.parts[i].Vel.Add(r.acc[i].Scale(dt / 2))
				r.parts[i].Pos = r.parts[i].Pos.Add(r.parts[i].Vel.Scale(dt))
			}
			r.blockForces(step, step+1, step > 0 && step%domainFreq == 0, true, 0)
			for i := range r.parts {
				r.parts[i].Vel = r.parts[i].Vel.Add(r.acc[i].Scale(dt / 2))
			}
		}
	})
	return s.Particles()
}

// TestBlockMaxRungs0Bitwise is the equivalence acceptance gate: with
// MaxRungs == 0 the one advance must reproduce the shared-step leapfrog
// (kdk) bit for bit and leave the block fields of its records zero.
// Single-rank runs are deterministic under any worker count (group walks
// write disjoint targets), and so are multi-rank runs: each rank sums its
// remote trees, boundary trees and full LETs alike, in one pass in peer
// order.
func TestBlockMaxRungs0Bitwise(t *testing.T) {
	type tc struct {
		name  string
		ranks int
		work  int
	}
	cases := []tc{
		{"1rank-1worker", 1, 1},
		{"1rank-4workers", 1, 4},
		{"2ranks", 2, 1},
		{"4ranks-2workers", 4, 2},
	}
	parts := plummer(400, 61)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{
				Ranks: c.ranks, WorkersPerRank: c.work, Theta: 0.5, Softening: 0.05,
				DT: 1e-3,
			}
			s, err := New(cfg, parts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				st := s.Step()
				if st.Substep != 0 || st.Substeps != 0 || st.Rebuilds != 0 || st.TotalN != 0 || st.RungPop != nil {
					t.Fatalf("step %d: block fields set on a shared-step run: %+v", i, st)
				}
			}
			exactlyEqual(t, s.Particles(), kdk(t, cfg, parts, 6), c.name)
		})
	}
}

// FuzzBlockEquivalence is the fuzz smoke over the same bitwise property:
// random single-rank clouds, sizes, and step counts must keep the
// MaxRungs == 0 advance identical to the kdk oracle.
func FuzzBlockEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(3))
	f.Add(int64(7), uint8(200), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, n, steps uint8) {
		np := 20 + int(n)
		ns := 1 + int(steps)%6
		parts := plummer(np, seed)
		cfg := Config{Theta: 0.5, Softening: 0.05, DT: 1e-3}
		s, err := New(cfg, parts)
		if err != nil {
			t.Skip()
		}
		s.Run(ns)
		exactlyEqual(t, s.Particles(), kdk(t, cfg, parts, ns), "fuzz")
	})
}

// TestBlockRungsSpreadAndTreeReuse drives the real hierarchy on a
// concentrated model: the rungs must actually spread (more substeps than
// evaluations a global step would run), most substeps must reuse the tree
// (rebuilds < substeps, the tentpole's headline property), and the active
// fraction must show that substeps integrate genuine subsets.
func TestBlockRungsSpreadAndTreeReuse(t *testing.T) {
	parts := concentrated(2000, 62)
	cfg := Config{
		Ranks: 2, WorkersPerRank: 2, Theta: 0.4, Softening: 0.01,
		DT: 4e-3, BlockSteps: true, MaxRungs: 4, EtaDT: 0.1,
	}
	s, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	spread := false
	for i := 0; i < 4; i++ {
		st := s.Step()
		if st.Substeps == 0 {
			t.Fatalf("step %d recorded no substeps", i)
		}
		if i > 0 && st.Substeps > 1 {
			spread = true
			if st.Rebuilds >= st.Substeps {
				t.Errorf("step %d: %d rebuilds for %d substeps; the tree was never reused",
					i, st.Rebuilds, st.Substeps)
			}
			if st.ActiveFrac <= 0 || st.ActiveFrac >= 1 {
				t.Errorf("step %d: active fraction %v, want a genuine subset in (0,1)",
					i, st.ActiveFrac)
			}
		}
	}
	if !spread {
		t.Fatal("rungs never spread on a concentrated model; timestep criterion inert")
	}
}

// TestReusedTreeFullActiveGroupBoxes: a full-active evaluation that reuses
// the tree (every particle on a rung active at a mid-step barrier, drift under
// the rebuild bound) must walk and advertise group boxes that bound the
// drifted targets, not the boxes of the last build. The drive is kdk's: a
// building evaluation, then a drift of every particle radially outward by a
// tenth of the rebuild bound, accounted the way the integrator accounts it.
func TestReusedTreeFullActiveGroupBoxes(t *testing.T) {
	cfg := Config{Ranks: 2, Softening: 0.01, DT: 4e-3, BlockSteps: true, MaxRungs: 4, EtaDT: 1e-4}
	s, err := New(cfg, plummer(4096, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.advance(func(_ int, n *Node) {
		r := n.r
		r.blockForces(0, 0, true, true, 0)
		for i := range r.parts {
			r.parts[i].Rung = uint8(cfg.MaxRungs)
		}
		r.reduceRungPop()
		d := 0.1 * driftFrac * r.minLeaf
		for i := range r.parts {
			p := r.parts[i].Pos
			p = p.Add(p.Scale(d / p.Norm()))
			r.parts[i].Pos, r.pos[i] = p, p
			r.maxDrift2 = max(r.maxDrift2, p.Sub(r.buildPos[i]).Norm2())
		}
		r.blockForces(0, 1, false, false, 1)
		if r.stats.Rebuilds != 0 || r.stats.ActiveN != r.stats.TotalN {
			t.Errorf("rank %d: rebuilds %d, active %d of %d: not a full-active reuse",
				n.Rank(), r.stats.Rebuilds, r.stats.ActiveN, r.stats.TotalN)
			return
		}
		outside := 0
		for _, g := range r.groups {
			for i := g.Start; i < g.Start+g.N; i++ {
				if !g.Box.Contains(r.pos[i]) {
					outside++
				}
			}
		}
		if outside > 0 {
			t.Errorf("rank %d: %d of %d targets lie outside their group's box", n.Rank(), outside, len(r.pos))
		}
	})
}

// TestBlockEnergyConservation bounds the energy drift of a rung-enabled run
// and requires it to be no worse than a global-dt run at the SAME top-level
// DT — the accuracy half of the acceptance criterion (the substeps refine
// the fast center, so the block run should conserve at least as well).
func TestBlockEnergyConservation(t *testing.T) {
	parts := concentrated(1500, 63)
	drift := func(cfg Config) float64 {
		s, err := New(cfg, parts)
		if err != nil {
			t.Fatal(err)
		}
		s.Step()
		k0, p0 := s.Energy()
		e0 := k0 + p0
		for i := 0; i < 9; i++ {
			s.Step()
		}
		k1, p1 := s.Energy()
		return math.Abs((k1 + p1 - e0) / e0)
	}
	base := Config{Ranks: 2, Theta: 0.3, Softening: 0.01, DT: 4e-3}
	dGlobal := drift(base)
	blk := base
	blk.BlockSteps, blk.MaxRungs = true, 4
	blk.EtaDT = 0.1
	dBlock := drift(blk)
	if dBlock > 2e-3 {
		t.Errorf("block-timestep energy drift %v over 10 steps", dBlock)
	}
	if dBlock > 2*dGlobal+1e-5 {
		t.Errorf("block drift %v worse than global-dt drift %v at the same DT", dBlock, dGlobal)
	}
}

// restartable is what the top-of-step restart contract is stated over: the
// in-process Simulation and a fleet of Nodes over any world both provide it.
type restartable interface {
	Step() obs.StepMetrics
	SetClock(step int, time float64)
	StepCount() int
	Time() float64
	Particles() []body.Particle
}

// nodesOf returns the Nodes behind a restartable.
func nodesOf(x restartable) fleet {
	if s, ok := x.(*Simulation); ok {
		return s.nodes
	}
	return x.(fleet)
}

// TestBlockSubstepRestart checks the restart contract of a block-timestep
// run: a checkpoint taken at a top-of-step barrier, restored into fresh
// ranks with nothing but New and SetClock, continues the trajectory — the
// rungs travel with the particles and the restored run keeps them. The
// restart re-primes its accelerations (and the Simulation re-splits the
// particles over its ranks), so forces differ within multipole acceptance
// error — the same tolerance as the top-level snapshot-restart test. The
// socket case holds one-rank-per-connection Nodes, each restored from its
// own checkpoint slice, to the same contract.
func TestBlockSubstepRestart(t *testing.T) {
	cfg := Config{
		Ranks: 2, Theta: 0.3, Softening: 0.01, DT: 4e-3,
		BlockSteps: true, MaxRungs: 3, EtaDT: 0.1,
	}
	for _, c := range []struct {
		name string
		mk   func(t *testing.T, split [][]body.Particle) restartable
	}{
		{"simulation", func(t *testing.T, split [][]body.Particle) restartable {
			s, err := New(cfg, slices.Concat(split...))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"socket-nodes", func(t *testing.T, split [][]body.Particle) restartable {
			w := newTestSockWorld(t, "unix", cfg.Ranks)
			f := make(fleet, cfg.Ranks)
			for r := range f {
				n, err := NewNode(cfg, w, r, split[r])
				if err != nil {
					t.Fatal(err)
				}
				f[r] = n
			}
			return f
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			parts := concentrated(800, 64)
			fresh := make([][]body.Particle, cfg.Ranks)
			for r := range fresh {
				fresh[r] = SliceForRank(parts, r, cfg.Ranks)
			}

			// Continuous run: 3 top-level steps.
			s1 := c.mk(t, fresh)
			for i := 0; i < 3; i++ {
				s1.Step()
			}
			want := s1.Particles()

			// Interrupted run: one step, a checkpoint at its top-of-step
			// barrier, then fresh ranks from the checkpoint's slices.
			s2 := c.mk(t, fresh)
			s2.Step()
			dir := t.TempDir()
			nodesOf(s2).each(func(n *Node) {
				if err := n.Checkpoint(dir); err != nil {
					t.Error(err)
				}
			})
			step, _, ok := snapshot.LatestCkpt(dir)
			if !ok {
				t.Fatal("no committed checkpoint")
			}
			restored := make([][]body.Particle, cfg.Ranks)
			var h snapshot.Header
			spread := false
			for r := range restored {
				var err error
				if h, restored[r], err = snapshot.LoadRankCkpt(dir, step, r); err != nil {
					t.Fatal(err)
				}
				spread = spread || slices.ContainsFunc(restored[r], func(p body.Particle) bool { return p.Rung > 0 })
			}
			if !spread {
				t.Fatal("checkpoint carries no rungs above 0; rungs never spread")
			}
			s3 := c.mk(t, restored)
			s3.SetClock(int(h.Step), h.Time)
			for i := 0; i < 2; i++ {
				s3.Step()
			}
			got := s3.Particles()

			var sum2, ref2 float64
			for i := range want {
				sum2 += got[i].Pos.Sub(want[i].Pos).Norm2()
				ref2 += want[i].Pos.Norm2()
			}
			if rms := math.Sqrt(sum2 / ref2); rms > 1e-4 {
				t.Errorf("checkpoint restart diverged: rms position difference %v", rms)
			}
		})
	}
}

// TestBlockRestoreDecidesRungsCollectively: whether a run keeps the rungs
// its particles arrive with is decided from the global rung population.
// Rank 0's slice is all on rung 0 and rank 1's is not, and the restart
// resumes at a step that is no domain epoch, so the slices stay where they
// are: a per-rank test would send rank 0 alone through the rung assignment
// and its extra Allreduce. The step must complete on both ranks and run on
// rank 1's rungs: under a time step so short that the criterion would put
// every particle on rung 0, kept rungs show as more than one substep.
func TestBlockRestoreDecidesRungsCollectively(t *testing.T) {
	const maxRungs = 2
	cfg := Config{Ranks: 2, Softening: 0.05, DT: 1e-9, BlockSteps: true, MaxRungs: maxRungs}
	parts := concentrated(400, 68)
	for i := range parts {
		parts[i].Rung = 0
	}
	high := SliceForRank(parts, 1, cfg.Ranks)
	for i := range high {
		high[i].Rung = maxRungs
	}
	f := newFleet(t, cfg, mpi.NewWorld(cfg.Ranks), parts)
	f.SetClock(1, 0) // step 1 % domainFreq != 0: no exchange before the decision
	done := make(chan []obs.StepMetrics, 1)
	go func() {
		recs := make([]obs.StepMetrics, cfg.Ranks)
		f.each(func(n *Node) { recs[n.Rank()] = n.Step() })
		done <- recs
	}()
	select {
	case recs := <-done:
		for r, m := range recs {
			// Priming, then barriers 1, 2 (rung 2 coarsens to 1) and 4.
			if m.Substeps != 4 {
				t.Errorf("rank %d ran %d evaluations, want 4: the restored rungs were not kept", r, m.Substeps)
			}
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("the first step never completed: the ranks disagreed on keeping the rungs")
	}
}

// TestNodeBlockMatchesSimulation runs the block-timestep path over the
// socket transport: 4 single-rank processes in lockstep must reproduce the
// in-process Simulation bitwise. Rungs travel inside the particle wire format, so
// domain exchanges mid-run (the run reaches step 4's epoch) keep every
// receiving rank able to close the half-finished steps of the particles it
// inherits.
func TestNodeBlockMatchesSimulation(t *testing.T) {
	const ranks = 4
	parts := concentrated(1200, 67)
	cfg := Config{
		Ranks: ranks, Theta: 0.4, Softening: 0.01, DT: 4e-3,
		BlockSteps: true, MaxRungs: 3, EtaDT: 0.1,
	}
	const steps = domainFreq + 1
	w := newTestSockWorld(t, "unix", ranks)
	nodes := runNodes(t, cfg, w, parts, steps)
	got := nodes.Particles()

	s, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		st := s.Step()
		if i > 0 && st.Substeps > 1 && st.Rebuilds >= st.Substeps {
			t.Errorf("step %d: no tree reuse (%d rebuilds / %d substeps)", i, st.Rebuilds, st.Substeps)
		}
	}
	exactlyEqual(t, got, s.Particles(), "socket block run vs in-process")
}

// TestConfigValidateRejectsGarbage is the satellite regression for Config
// validation: non-finite or negative numeric tunables must be rejected with
// a clear error instead of silently simulating garbage.
func TestConfigValidateRejectsGarbage(t *testing.T) {
	parts := plummer(50, 66)
	bad := []Config{
		{DT: math.NaN()},
		{DT: math.Inf(1)},
		{DT: -1e-3},
		{Softening: math.NaN()},
		{Softening: -0.01},
		{Theta: math.Inf(-1)},
		{Theta: -0.4},
		{EtaDT: math.NaN()},
		{EtaDT: -0.1},
		{GravConst: math.NaN()},
		{BlockSteps: true, MaxRungs: -1},
		{BlockSteps: true, MaxRungs: 17},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, parts); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
	// Zero values mean "default" and must stay legal.
	if _, err := New(Config{}, parts); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}
