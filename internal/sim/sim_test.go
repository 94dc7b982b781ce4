package sim

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/direct"
	"bonsai/internal/grav"
	"bonsai/internal/ic"
	"bonsai/internal/mpi"
	"bonsai/internal/vec"
)

func plummer(n int, seed int64) []body.Particle {
	return ic.Plummer(n, 1.0, 1.0, 1.0, seed)
}

// rmsAccError compares simulation accelerations to direct summation.
func rmsAccError(t *testing.T, s *Simulation, eps float64) float64 {
	t.Helper()
	parts := s.Particles()
	pos := make([]vec.V3, len(parts))
	mass := make([]float64, len(parts))
	for i, p := range parts {
		pos[i] = p.Pos
		mass[i] = p.Mass
	}
	wantAcc, _, _ := direct.Forces(pos, mass, eps*eps, 0)
	gotAcc, _ := s.Accelerations()
	var sum2, ref2 float64
	for i := range gotAcc {
		sum2 += gotAcc[i].Sub(wantAcc[i]).Norm2()
		ref2 += wantAcc[i].Norm2()
	}
	return math.Sqrt(sum2 / ref2)
}

func TestForcesMatchDirectAcrossRankCounts(t *testing.T) {
	parts := plummer(3000, 1)
	for _, ranks := range []int{1, 2, 4, 8} {
		s, err := New(Config{Ranks: ranks, Theta: 0.4, Softening: 0.05, WorkersPerRank: 2}, parts)
		if err != nil {
			t.Fatal(err)
		}
		s.ComputeForces()
		if rms := rmsAccError(t, s, 0.05); rms > 2e-3 {
			t.Errorf("ranks=%d: rms acc error %v vs direct", ranks, rms)
		}
	}
}

func TestForcesRankInvariance(t *testing.T) {
	// The distributed result must agree with the single-rank result to
	// within multipole acceptance error (the domain split changes which
	// cells the MAC accepts, not the physics).
	parts := plummer(2000, 2)
	s1, _ := New(Config{Ranks: 1, Theta: 0.4, Softening: 0.05}, parts)
	s1.ComputeForces()
	a1, _ := s1.Accelerations()

	s8, _ := New(Config{Ranks: 8, Theta: 0.4, Softening: 0.05}, parts)
	s8.ComputeForces()
	a8, _ := s8.Accelerations()

	var sum2, ref2 float64
	for i := range a1 {
		sum2 += a1[i].Sub(a8[i]).Norm2()
		ref2 += a1[i].Norm2()
	}
	if rms := math.Sqrt(sum2 / ref2); rms > 3e-3 {
		t.Errorf("1-rank vs 8-rank rms difference %v", rms)
	}
}

func TestParticleConservation(t *testing.T) {
	parts := plummer(1500, 3)
	s, _ := New(Config{Ranks: 5, Softening: 0.05, DT: 1e-3}, parts)
	s.Run(5)
	after := s.Particles()
	if len(after) != len(parts) {
		t.Fatalf("particle count %d != %d", len(after), len(parts))
	}
	seen := map[int64]bool{}
	var mass float64
	for _, p := range after {
		if seen[p.ID] {
			t.Fatalf("duplicate particle %d", p.ID)
		}
		seen[p.ID] = true
		mass += p.Mass
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Errorf("total mass %v", mass)
	}
}

func TestEnergyConservation(t *testing.T) {
	// A Plummer sphere in equilibrium integrated with KDK leapfrog: relative
	// energy drift over 40 steps must be small.
	parts := plummer(2000, 4)
	s, _ := New(Config{Ranks: 4, Theta: 0.3, Softening: 0.05, DT: 2e-3, WorkersPerRank: 2}, parts)
	s.Step()
	k0, p0 := s.Energy()
	e0 := k0 + p0
	s.Run(39)
	k1, p1 := s.Energy()
	e1 := k1 + p1
	drift := math.Abs((e1 - e0) / e0)
	if drift > 2e-3 {
		t.Errorf("energy drift %v over 40 steps (E0=%v E1=%v)", drift, e0, e1)
	}
	// Sanity: the system is roughly virialized: 2K + W ≈ 0 (softening and
	// sampling noise allow ~15%).
	if q := (2*k1 + p1) / math.Abs(p1); math.Abs(q) > 0.15 {
		t.Errorf("virial ratio off: 2K+W = %v of |W|", q)
	}
}

func TestMomentumConservation(t *testing.T) {
	parts := plummer(1200, 5)
	s, _ := New(Config{Ranks: 3, Softening: 0.05, DT: 1e-3}, parts)
	s.Step()
	p0 := s.Momentum()
	s.Run(10)
	p1 := s.Momentum()
	// Tree-force asymmetry injects tiny momentum errors; they must stay tiny
	// relative to the system's internal momentum scale Σ m|v|.
	var scale float64
	for _, p := range s.Particles() {
		scale += p.Mass * p.Vel.Norm()
	}
	if p1.Sub(p0).Norm() > 1e-3*scale {
		t.Errorf("momentum drift %v (scale %v)", p1.Sub(p0), scale)
	}
}

func TestTimeReversibility(t *testing.T) {
	// Kick-drift-kick leapfrog is time-reversible: run forward, negate every
	// velocity, run as many steps again from a fresh simulation, and each
	// particle retraces its path to its start with its velocity negated. On
	// one rank the tree forces are a deterministic function of the positions,
	// so only rounding in the drifts and kicks separates the two ends; an
	// asymmetric kick or drift moves them apart by orders of magnitude more.
	const steps = 20
	cfg := Config{Ranks: 1, Theta: 0.4, Softening: 0.05, DT: 0.01}
	start := plummer(2048, 13)
	fwd, err := New(cfg, start)
	if err != nil {
		t.Fatal(err)
	}
	fwd.Run(steps)
	mid := fwd.Particles()
	for i := range mid {
		mid[i].Vel = mid[i].Vel.Scale(-1)
	}
	back, err := New(cfg, mid)
	if err != nil {
		t.Fatal(err)
	}
	back.Run(steps)
	var worst float64
	for i, p := range back.Particles() {
		if p.ID != start[i].ID {
			t.Fatalf("particle %d has ID %d, want %d", i, p.ID, start[i].ID)
		}
		worst = max(worst, p.Pos.Sub(start[i].Pos).Norm(), p.Vel.Add(start[i].Vel).Norm())
	}
	if worst > 1e-12 {
		t.Errorf("reversed run misses its start by %.3g, want ≤ 1e-12", worst)
	}
}

func TestLoadBalanceAfterDomainUpdate(t *testing.T) {
	parts := plummer(4000, 6)
	s, _ := New(Config{Ranks: 8, Softening: 0.05}, parts)
	s.ComputeForces()
	counts := s.RankCounts()
	total := 0
	maxc := 0
	for _, c := range counts {
		total += c
		if c > maxc {
			maxc = c
		}
	}
	avg := float64(total) / float64(len(counts))
	if float64(maxc) > 1.4*avg { // cap 1.3 plus sampling slack
		t.Errorf("imbalanced: counts %v", counts)
	}
}

func TestStepStatsPopulated(t *testing.T) {
	parts := plummer(3000, 7)
	s, _ := New(Config{Ranks: 4, Softening: 0.05}, parts)
	st := s.ComputeForces()
	if st.N != 3000 || st.Ranks != 4 {
		t.Fatalf("stats header: %+v", st)
	}
	if st.PP == 0 || st.PC == 0 {
		t.Error("no interactions recorded")
	}
	if st.PPPerParticle <= 0 || st.PCPerParticle <= 0 {
		t.Error("per-particle interaction counts missing")
	}
	if st.Times.GravLocal <= 0 || st.Times.SortBuild <= 0 {
		t.Errorf("phase timers missing: %+v", st.Times)
	}
	if st.WalkGflops <= 0 || st.AppGflops <= 0 {
		t.Error("performance rates missing")
	}
	if st.BytesSent == 0 {
		t.Error("no communication metered")
	}
}

func TestInteractionCountsStableAcrossRanks(t *testing.T) {
	// Table II: p-p per particle is essentially constant across GPU counts
	// (1715-1718 in the paper) and p-c changes only mildly at small rank
	// counts (its growth — 6287 → 6920 — emerges at thousands of ranks,
	// reproduced by the analytic model in internal/perfmodel). Here we pin
	// down that distributing the walk does not distort the interaction
	// counts: both stay within 10% of the single-rank values.
	parts := plummer(4000, 8)
	var pc1, pp1 float64
	{
		s, _ := New(Config{Ranks: 1, Softening: 0.05}, parts)
		st := s.ComputeForces()
		pc1, pp1 = st.PCPerParticle, st.PPPerParticle
	}
	for _, ranks := range []int{2, 8} {
		s, _ := New(Config{Ranks: ranks, Softening: 0.05}, parts)
		st := s.ComputeForces()
		if r := st.PCPerParticle / pc1; r < 0.9 || r > 1.1 {
			t.Errorf("ranks=%d: p-c per particle drifted: %v vs %v", ranks, st.PCPerParticle, pc1)
		}
		if r := st.PPPerParticle / pp1; r < 0.9 || r > 1.1 {
			t.Errorf("ranks=%d: p-p per particle drifted: %v vs %v", ranks, st.PPPerParticle, pp1)
		}
	}
}

func TestBoundaryTreesServeDistantRanks(t *testing.T) {
	// Two widely separated clusters on different ranks: the LET exchange
	// should serve at least some pairs from boundary trees alone.
	var parts []body.Particle
	a := ic.Plummer(1000, 1, 0.5, 1, 9)
	b := ic.Plummer(1000, 1, 0.5, 1, 10)
	for i := range a {
		a[i].Pos = a[i].Pos.Add(vec.V3{X: -50})
		parts = append(parts, a[i])
	}
	for i := range b {
		b[i].Pos = b[i].Pos.Add(vec.V3{X: 50})
		b[i].ID += 1000
		parts = append(parts, b[i])
	}
	s, _ := New(Config{Ranks: 4, Softening: 0.05, Theta: 0.5}, parts)
	st := s.ComputeForces()
	if st.BoundaryUsed == 0 {
		t.Error("no rank pair was served by boundary trees despite wide separation")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	// Same config, same seed: particle positions after several steps must be
	// reproducible to floating tolerance (LET arrival order varies, so only
	// near-bitwise agreement is demanded).
	run := func() []body.Particle {
		s, _ := New(Config{Ranks: 3, Softening: 0.05, DT: 1e-3}, plummer(900, 11))
		s.Run(3)
		return s.Particles()
	}
	p1 := run()
	p2 := run()
	for i := range p1 {
		if p1[i].Pos.Sub(p2[i].Pos).Norm() > 1e-9 {
			t.Fatalf("non-reproducible trajectory at particle %d: %v vs %v",
				i, p1[i].Pos, p2[i].Pos)
		}
	}
}

func TestCommSurfaceScaling(t *testing.T) {
	// §III.B.2: per-rank communication volume grows slower than the particle
	// count. Double N and compare LET bytes: growth factor must be well
	// below 2 (surface-like, ~2^(2/3) ≈ 1.6).
	bytesFor := func(n int) float64 {
		s, _ := New(Config{Ranks: 8, Softening: 0.05}, plummer(n, 12))
		st := s.ComputeForces()
		st2 := s.ComputeForces() // steady state, after balancing
		_ = st
		return float64(st2.BytesSent)
	}
	b1 := bytesFor(4000)
	b2 := bytesFor(8000)
	if b2 <= b1 {
		t.Skip("communication did not grow; geometry too small to judge")
	}
	growth := b2 / b1
	if growth > 1.9 {
		t.Errorf("communication grew like volume: factor %v for 2x particles", growth)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Error("expected error for empty particle set")
	}
	if _, err := New(Config{Ranks: 100}, plummer(10, 1)); err == nil {
		t.Error("expected error for more ranks than particles")
	}
	s, err := New(Config{}, plummer(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg.Theta != 0.4 || cfg.BoundaryDepth != 4 || cfg.Ranks != 1 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestZeroParticleRankSurvives(t *testing.T) {
	// A tight cluster on 4 ranks: after the first decomposition some ranks
	// may be nearly empty; the pipeline must not deadlock or crash, through
	// the next domain epoch (step 4) too.
	parts := ic.Plummer(64, 1, 0.01, 1, 13)
	s, _ := New(Config{Ranks: 4, Softening: 0.01}, parts)
	s.Run(domainFreq + 1)
	if len(s.Particles()) != 64 {
		t.Fatal("particles lost")
	}
}

func TestGravitationalConstantScalesForces(t *testing.T) {
	parts := plummer(500, 21)
	a1 := func(g float64) []vec.V3 {
		s, _ := New(Config{Ranks: 2, Softening: 0.05, GravConst: g}, parts)
		s.ComputeForces()
		acc, _ := s.Accelerations()
		return acc
	}
	ref := a1(1)
	scaled := a1(2)
	for i := range ref {
		if scaled[i].Sub(ref[i].Scale(2)).Norm() > 1e-9*(1+ref[i].Norm()) {
			t.Fatalf("G=2 forces not twice G=1 forces at particle %d", i)
		}
	}
	// Potentials scale too (via Energy).
	s1, _ := New(Config{Ranks: 2, Softening: 0.05, GravConst: 1}, parts)
	s1.ComputeForces()
	_, p1 := s1.Energy()
	s2, _ := New(Config{Ranks: 2, Softening: 0.05, GravConst: 2}, parts)
	s2.ComputeForces()
	_, p2 := s2.Energy()
	if math.Abs(p2-2*p1) > 1e-9*math.Abs(p1) {
		t.Fatalf("potential energy not linear in G: %v vs %v", p2, 2*p1)
	}
}

func TestRejectsNonFiniteParticles(t *testing.T) {
	parts := plummer(50, 31)
	parts[7].Pos.X = math.NaN()
	if _, err := New(Config{}, parts); err == nil {
		t.Error("NaN position accepted")
	}
	parts = plummer(50, 31)
	parts[3].Mass = -1
	if _, err := New(Config{}, parts); err == nil {
		t.Error("negative mass accepted")
	}
	parts = plummer(50, 31)
	parts[3].Vel.Z = math.Inf(1)
	if _, err := New(Config{}, parts); err == nil {
		t.Error("infinite velocity accepted")
	}
}

func TestSnapshotRestartEquivalence(t *testing.T) {
	// Pausing a run through a snapshot must continue the same trajectory:
	// the restart differs only by the domain/tree state being rebuilt, which
	// perturbs forces within multipole acceptance error.
	cfg := Config{Ranks: 3, Theta: 0.3, Softening: 0.05, DT: 1e-3}
	parts := plummer(800, 32)

	// Continuous run: 10 steps.
	s1, _ := New(cfg, parts)
	s1.Run(10)
	want := s1.Particles()

	// Interrupted run: 5 steps, snapshot, restart, 5 more.
	s2, _ := New(cfg, parts)
	s2.Run(5)
	mid := s2.Particles()
	s3, _ := New(cfg, mid)
	s3.Run(5)
	got := s3.Particles()

	var sum2, ref2 float64
	for i := range want {
		sum2 += got[i].Pos.Sub(want[i].Pos).Norm2()
		ref2 += want[i].Pos.Norm2()
	}
	if rms := math.Sqrt(sum2 / ref2); rms > 1e-4 {
		t.Errorf("restart diverged: rms position difference %v", rms)
	}
}

func TestCommunicationMostlyHidden(t *testing.T) {
	// The paper's headline mechanism (§III.B): LET communication hides
	// behind the gravity computation — including the boundary-tree
	// exchange, which the overlapped mode pipelines instead of running as a
	// blocking allgather. The non-hidden communication time must stay a
	// small fraction of the gravity-walk time. The particle count is sized
	// so each rank's walk (~50 ms with the float32 kernels) is several
	// scheduler timeslices long: the test's four ranks share two cores, and
	// with shorter walks what a rank waits for is a peer that has not had a
	// core yet, not a message (at 24k particles that is 10–55% of gravity).
	//
	// One evaluation's fraction still reads the host: on two cores it is over
	// the bound in 14–20% of runs while the median sits at 8–11%. So the
	// verdict is the median of five steady-state evaluations against the same
	// 25%.
	parts := plummer(48_000, 41)
	s, _ := New(Config{Ranks: 4, Theta: 0.4, Softening: 0.05}, parts)
	s.ComputeForces()
	var fracs []float64
	for len(fracs) < 5 {
		st := s.ComputeForces() // steady state
		grav := st.Times.GravLocal + st.Times.GravLET
		if grav == 0 {
			t.Fatal("no gravity time recorded")
		}
		fracs = append(fracs, st.Times.NonHiddenComm.Seconds()/grav.Seconds())
	}
	slices.Sort(fracs)
	if median := fracs[len(fracs)/2]; median > 0.25 {
		t.Errorf("non-hidden comm is %.0f%% of gravity time at the median of %.2f; the paper hides nearly all of it", median*100, fracs)
	}
}

func TestStepProfileShape(t *testing.T) {
	// Table II's profile shape: gravity dominates the step; the device
	// pipeline (sort + build + properties) is a small fraction.
	parts := plummer(12_000, 43)
	s, _ := New(Config{Ranks: 2, Theta: 0.4, Softening: 0.05}, parts)
	s.ComputeForces()
	st := s.ComputeForces()
	total := st.Times.Total.Seconds()
	grav := (st.Times.GravLocal + st.Times.GravLET).Seconds()
	pipeline := (st.Times.SortBuild + st.Times.TreeProps).Seconds()
	if grav/total < 0.5 {
		t.Errorf("gravity is %.0f%% of the step; Table II has ~75-80%%", 100*grav/total)
	}
	if pipeline/total > 0.2 {
		t.Errorf("sort+build+props is %.0f%% of the step; Table II has ~5%%", 100*pipeline/total)
	}
}

func TestNonFiniteForceFailsTheStep(t *testing.T) {
	// An Inf coordinate makes every separation from that particle Inf or NaN
	// (on either kernel tier: the float32 path hands such calls to the scalar
	// loops). The force phase must stop the step with the rank and the
	// particle named rather than integrate the NaN. One rank, driven on the
	// test's goroutine, so the panic can be recovered here.
	for _, cfg := range []Config{
		{Ranks: 1, Softening: 0.05, DT: 1e-3},
		{Ranks: 1, Softening: 0.05, DT: 1e-3, BlockSteps: true, MaxRungs: 3},
	} {
		n, err := NewNode(cfg, mpi.NewWorld(1), 0, plummer(600, 77))
		if err != nil {
			t.Fatal(err)
		}
		n.Step()
		n.Particles()[123].Pos.Y = math.Inf(1)
		id := n.Particles()[123].ID
		func() {
			defer func() {
				var nf *NonFiniteForceError
				if err, _ := recover().(error); !errors.As(err, &nf) {
					t.Fatalf("MaxRungs=%d: step ended with %v, want a *NonFiniteForceError", cfg.MaxRungs, err)
				}
				if nf.Rank != 0 || nf.ID < 0 || nf.ID >= 600 {
					t.Fatalf("MaxRungs=%d: error names rank %d, particle id %d (the Inf is on id %d)", cfg.MaxRungs, nf.Rank, nf.ID, id)
				}
			}()
			n.Step()
		}()
	}
}

func TestExchangeConservationFailsByName(t *testing.T) {
	// Two ranks take their tallies, "exchange" — rank 1 loses a particle, as
	// a frame dropped in flight would — and run the collective check: both
	// must panic with the named error carrying the global before and after.
	const n = 600
	parts := plummer(n, 79)
	w := mpi.NewWorld(2)
	nodes := make([]*Node, 2)
	for k := range nodes {
		var err error
		if nodes[k], err = NewNode(Config{Ranks: 2, Softening: 0.05, DT: 1e-3}, w, k, parts[k*n/2:(k+1)*n/2]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for k, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				var ce *ExchangeConservationError
				if err, _ := recover().(error); !errors.As(err, &ce) {
					t.Errorf("rank %d: check ended with %v, want an *ExchangeConservationError", k, err)
				} else if ce.Rank != k || ce.CountBefore != n || ce.CountAfter != n-1 || !(ce.MassAfter < ce.MassBefore) {
					t.Errorf("rank %d: error reports %+v", k, *ce)
				}
			}()
			nd.Step() // a real exchange passes the check
			r := nd.r
			count, mass := r.tally()
			if k == 1 {
				r.parts = r.parts[1:]
			}
			r.checkExchange(count, mass)
		}()
	}
	wg.Wait()
}

func TestTreeMassInvariantFailsByName(t *testing.T) {
	// A subtree whose moments were never computed — a span the properties
	// partition missed — leaves the root short of its mass. Construct that
	// tree by hand and hold the post-sweep check to its named error.
	n, err := NewNode(Config{Ranks: 1, Softening: 0.05, DT: 1e-3}, mpi.NewWorld(1), 0, plummer(600, 78))
	if err != nil {
		t.Fatal(err)
	}
	n.Step()
	r := n.r
	r.checkTreeMass() // the tree the step left behind is whole

	cells := r.tree.Cells
	sub := 0 // the root's last child: the last cell one level down
	for i := range cells {
		if cells[i].Level == 1 && cells[i].MP.M > 0 {
			sub = i
		}
	}
	lost := cells[sub].MP.M
	for i := sub; i < len(cells) && (i == sub || cells[i].Level > cells[sub].Level); i++ {
		cells[i].MP = grav.Multipole{}
	}
	cells[0].MP.M -= lost

	defer func() {
		var tm *TreeMassError
		if err, _ := recover().(error); !errors.As(err, &tm) {
			t.Fatalf("check ended with %v, want a *TreeMassError", err)
		}
		if tm.Rank != 0 || tm.RootMass >= tm.SumMass || math.Abs(tm.SumMass-tm.RootMass-lost) > 1e-12 {
			t.Fatalf("error reports rank %d, root mass %g, particle mass %g (zeroed %g)", tm.Rank, tm.RootMass, tm.SumMass, lost)
		}
	}()
	r.checkTreeMass()
}
