package sim

import (
	"math"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/ic"
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

// TestBlockMaxRungs0Bitwise is the equivalence acceptance gate: with
// MaxRungs == 0 the block path must reproduce the global-dt leapfrog
// bit-for-bit. Single-rank runs are deterministic under any worker count
// (group walks write disjoint targets). Multi-rank runs pin SerialLET and a
// boundary depth deeper than any local tree, so every pair is served by its
// (exact) boundary tree in rank order and no arrival-order float jitter
// exists to hide behind.
func TestBlockMaxRungs0Bitwise(t *testing.T) {
	type tc struct {
		name   string
		ranks  int
		work   int
		serial bool
		bdepth int
	}
	cases := []tc{
		{"1rank-1worker", 1, 1, false, 0},
		{"1rank-4workers", 1, 4, false, 0},
		{"2ranks", 2, 1, true, 16},
		{"4ranks-2workers", 4, 2, true, 16},
	}
	parts := plummer(400, 61)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := Config{
				Ranks: c.ranks, WorkersPerRank: c.work, Theta: 0.5, Eps: 0.05,
				DT: 1e-3, DomainFreq: 2, SerialLET: c.serial, BoundaryDepth: c.bdepth,
			}
			g, err := New(base, parts)
			if err != nil {
				t.Fatal(err)
			}
			blk := base
			blk.BlockSteps = true
			b, err := New(blk, parts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				g.Step()
				st := b.Step()
				if st.Substeps != 1+boolInt(i == 0) {
					t.Fatalf("step %d ran %d substeps, want the global-equivalent single evaluation", i, st.Substeps)
				}
				exactlyEqual(t, b.Particles(), g.Particles(), c.name)
			}
		})
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FuzzBlockEquivalence is the fuzz smoke over the same bitwise property:
// random single-rank clouds, sizes, and step counts must keep the
// MaxRungs == 0 block path identical to the global-dt path.
func FuzzBlockEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(3))
	f.Add(int64(7), uint8(200), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, n, steps uint8) {
		np := 20 + int(n)
		ns := 1 + int(steps)%6
		parts := plummer(np, seed)
		base := Config{Theta: 0.5, Eps: 0.05, DT: 1e-3, DomainFreq: 2}
		g, err := New(base, parts)
		if err != nil {
			t.Skip()
		}
		blk := base
		blk.BlockSteps = true
		b, _ := New(blk, parts)
		for i := 0; i < ns; i++ {
			g.Step()
			b.Step()
		}
		exactlyEqual(t, b.Particles(), g.Particles(), "fuzz")
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
		Ranks: 2, WorkersPerRank: 2, Theta: 0.4, Eps: 0.01,
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
	base := Config{Ranks: 2, Theta: 0.3, Eps: 0.01, DT: 4e-3}
	dGlobal := drift(base)
	blk := base
	blk.BlockSteps = true
	blk.MaxRungs = 4
	blk.EtaDT = 0.1
	dBlock := drift(blk)
	if dBlock > 2e-3 {
		t.Errorf("block-timestep energy drift %v over 10 steps", dBlock)
	}
	if dBlock > 2*dGlobal+1e-5 {
		t.Errorf("block drift %v worse than global-dt drift %v at the same DT", dBlock, dGlobal)
	}
}

// substepper is what the mid-step restart contract is stated over: the
// in-process Simulation and a fleet of Nodes over any world both provide it.
// SubstepN(0) finishes the current top-level step, as Step does.
type substepper interface {
	SubstepN(n int) (bool, error)
	Substep() int
	RestoreSubstep(sub int) error
	SetClock(step int, time float64)
	StepCount() int
	Time() float64
	Particles() []body.Particle
}

// TestBlockSubstepRestart checks the mid-step restart contract: stopping at
// a substep barrier, rebuilding a simulation from the particle state (rungs
// travel with the particles), and resuming via RestoreSubstep must continue
// the trajectory. The restart rebuilds its tree where the original reused
// one, so forces differ within multipole acceptance error — same tolerance
// as the top-level snapshot-restart test. The socket case holds one-rank-per-
// connection Nodes to the same contract.
func TestBlockSubstepRestart(t *testing.T) {
	cfg := Config{
		Ranks: 2, Theta: 0.3, Eps: 0.01, DT: 4e-3,
		BlockSteps: true, MaxRungs: 3, EtaDT: 0.1,
	}
	for _, c := range []struct {
		name string
		mk   func(t *testing.T, parts []body.Particle) substepper
	}{
		{"simulation", func(t *testing.T, parts []body.Particle) substepper {
			s, err := New(cfg, parts)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"socket-nodes", func(t *testing.T, parts []body.Particle) substepper {
			return newFleet(t, cfg, newTestSockWorld(t, "unix", cfg.Ranks), parts)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			parts := concentrated(800, 64)
			step := func(s substepper) {
				if done, err := s.SubstepN(0); err != nil || !done {
					t.Fatalf("SubstepN(0) = (%v, %v), want a completed step", done, err)
				}
			}

			// Continuous run: 3 top-level steps.
			s1 := c.mk(t, parts)
			for i := 0; i < 3; i++ {
				step(s1)
			}
			want := s1.Particles()

			// Interrupted run: one step, then substep-at-a-time into step 1
			// until a mid-step barrier is reached (a model with spread rungs
			// reaches one).
			s2 := c.mk(t, parts)
			step(s2)
			mid := 0
			for i := 0; i < 64; i++ {
				done, err := s2.SubstepN(1)
				if err != nil {
					t.Fatal(err)
				}
				if !done && s2.Substep() > 0 {
					mid = s2.Substep()
					break
				}
				if done {
					t.Fatal("step 1 completed without ever pausing at a mid-step barrier; rungs never spread")
				}
			}
			if mid == 0 {
				t.Fatal("never reached a mid-step barrier")
			}

			// Restart from the barrier: particle state (positions, velocities,
			// rungs) plus the substep index and clock.
			s3 := c.mk(t, s2.Particles())
			if err := s3.RestoreSubstep(mid); err != nil {
				t.Fatal(err)
			}
			s3.SetClock(s2.StepCount(), s2.Time())
			for { // finish step 1
				done, err := s3.SubstepN(1)
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
			}
			step(s3) // step 2
			got := s3.Particles()

			var sum2, ref2 float64
			for i := range want {
				sum2 += got[i].Pos.Sub(want[i].Pos).Norm2()
				ref2 += want[i].Pos.Norm2()
			}
			if rms := math.Sqrt(sum2 / ref2); rms > 1e-4 {
				t.Errorf("substep restart diverged: rms position difference %v", rms)
			}
		})
	}
}

// TestNodeBlockMatchesSimulation runs the block-timestep path over the
// socket transport: 4 single-rank processes in lockstep must reproduce the
// in-process Simulation. Rungs travel inside the particle wire format, so
// domain exchanges mid-run keep every receiving rank able to close the
// half-finished steps of the particles it inherits.
func TestNodeBlockMatchesSimulation(t *testing.T) {
	const ranks = 4
	parts := concentrated(1200, 67)
	cfg := Config{
		Ranks: ranks, Theta: 0.4, Eps: 0.01, DT: 4e-3, DomainFreq: 1,
		BlockSteps: true, MaxRungs: 3, EtaDT: 0.1,
	}
	w := newTestSockWorld(t, "unix", ranks)
	nodes := runNodes(t, cfg, w, parts, 3)
	got := nodes.Particles()

	s, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		st := s.Step()
		if i > 0 && st.Substeps > 1 && st.Rebuilds >= st.Substeps {
			t.Errorf("step %d: no tree reuse (%d rebuilds / %d substeps)", i, st.Rebuilds, st.Substeps)
		}
	}
	if rms := rmsPosDiff(t, got, s.Particles()); rms > 1e-10 {
		t.Errorf("socket block run diverged from in-process: rms %v", rms)
	}
	if nodes[0].Substep() != 0 {
		t.Errorf("node not at a top-of-step barrier after Step: substep %d", nodes[0].Substep())
	}
}

// TestBlockRestoreSubstepValidation pins the error paths of the restart API.
func TestBlockRestoreSubstepValidation(t *testing.T) {
	s, _ := New(Config{DT: 1e-3}, plummer(50, 65))
	if err := s.RestoreSubstep(0); err == nil {
		t.Error("RestoreSubstep accepted a non-block simulation")
	}
	if _, err := s.SubstepN(1); err == nil {
		t.Error("SubstepN accepted a non-block simulation")
	}
	b, _ := New(Config{DT: 1e-3, BlockSteps: true, MaxRungs: 2}, plummer(50, 65))
	if err := b.RestoreSubstep(4); err == nil {
		t.Error("RestoreSubstep accepted substep == 2^MaxRungs")
	}
	if err := b.RestoreSubstep(-1); err == nil {
		t.Error("RestoreSubstep accepted a negative substep")
	}
	if err := b.RestoreSubstep(3); err != nil {
		t.Errorf("RestoreSubstep rejected a legal barrier: %v", err)
	}
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
		{Eps: math.NaN()},
		{Eps: -0.01},
		{Theta: math.Inf(-1)},
		{Theta: -0.4},
		{EtaDT: math.NaN()},
		{EtaDT: -0.1},
		{G: math.NaN()},
		{MaxRungs: -1},
		{MaxRungs: 17},
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
