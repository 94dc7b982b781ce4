package sim

import (
	"math"
	"testing"

	"bonsai/internal/grav"
	"bonsai/internal/ic"
	"bonsai/internal/vec"
)

// TestOverlapPipelineMatchesSerial: the pipelined gravity phase changes only
// which batched pass a remote tree lands in and where in the pass's merged
// lists, so forces must agree with the one-flush ascending-peer baseline to
// floating-point reassociation error.
func TestOverlapPipelineMatchesSerial(t *testing.T) {
	parts := plummer(3000, 61)
	accFor := func(serial bool) []vec.V3 {
		s, err := New(Config{
			Ranks: 8, WorkersPerRank: 2, Theta: 0.4, Softening: 0.05,
			DomainFreq: 1, SerialLET: serial,
		}, parts)
		if err != nil {
			t.Fatal(err)
		}
		s.ComputeForces()
		acc, _ := s.Accelerations()
		return acc
	}
	serial := accFor(true)
	piped := accFor(false)
	var sum2, ref2 float64
	for i := range serial {
		sum2 += piped[i].Sub(serial[i]).Norm2()
		ref2 += serial[i].Norm2()
	}
	if rms := math.Sqrt(sum2 / ref2); rms > grav.KernelTol() {
		t.Errorf("pipelined forces diverge from serial baseline: rms %v", rms)
	}
}

// TestOverlapCountersConsistent: the new overlap-efficiency counters must be
// populated and internally consistent at 8 ranks.
func TestOverlapCountersConsistent(t *testing.T) {
	parts := plummer(6000, 62)
	s, err := New(Config{Ranks: 8, WorkersPerRank: 2, Theta: 0.4, Softening: 0.05, DomainFreq: 1}, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.ComputeForces()
	st := s.ComputeForces()
	if st.LETsRecv != st.LETsSent {
		t.Errorf("LETs received (%d) != LETs sent (%d)", st.LETsRecv, st.LETsSent)
	}
	if st.LETsOverlapped < 0 || st.LETsOverlapped > st.LETsRecv {
		t.Errorf("overlapped count %d outside [0, %d]", st.LETsOverlapped, st.LETsRecv)
	}
	if st.OverlapFrac < 0 || st.OverlapFrac > 1 {
		t.Errorf("overlap fraction %v outside [0,1]", st.OverlapFrac)
	}
	if st.LETsRecv == 0 && st.BoundaryUsed == 0 {
		t.Error("no remote trees exchanged at 8 ranks")
	}

	// Serial baseline: by construction nothing overlaps.
	s2, err := New(Config{Ranks: 8, WorkersPerRank: 2, Theta: 0.4, Softening: 0.05,
		DomainFreq: 1, SerialLET: true}, parts)
	if err != nil {
		t.Fatal(err)
	}
	st2 := s2.ComputeForces()
	if st2.LETsOverlapped != 0 || st2.OverlapFrac != 0 || st2.RecvIdle != 0 {
		t.Errorf("serial baseline reported overlap: %+v", st2)
	}
}

// TestOverlapPipelineStress drives the full pipeline — parallel walks,
// builder pool, receiver goroutine, batched remote passes — across several
// steps at 8 ranks with multiple workers. Run under -race this is the
// regression net for the concurrency structure; accuracy is pinned against
// direct summation.
func TestOverlapPipelineStress(t *testing.T) {
	parts := plummer(2500, 63)
	s, err := New(Config{
		Ranks: 8, WorkersPerRank: 4,
		Theta: 0.4, Softening: 0.05, DT: 1e-3, DomainFreq: 1,
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(3)
	if len(s.Particles()) != 2500 {
		t.Fatal("particles lost")
	}
	if rms := rmsAccError(t, s, 0.05); rms > 2e-3 {
		t.Errorf("rms acc error %v vs direct after pipelined steps", rms)
	}
}

// TestExternalPotentialReported: with Config.External set, Accelerations()
// must report the true physical potential — self-gravity plus the analytic
// field — not the energy-bookkeeping hybrid the seed code stored (which
// doubled the external term).
func TestExternalPotentialReported(t *testing.T) {
	parts := plummer(1500, 64)
	ext := func(pos vec.V3) (vec.V3, float64) {
		// Harmonic trap: a = -k x, phi = 0.5 k |x|^2 (sign chosen so the
		// pair is consistent: a = -grad phi).
		const k = 0.3
		return pos.Scale(-k), 0.5 * k * pos.Norm2()
	}
	base, err := New(Config{Ranks: 4, Theta: 0.4, Softening: 0.05, DomainFreq: 1}, parts)
	if err != nil {
		t.Fatal(err)
	}
	base.ComputeForces()
	baseAcc, basePot := base.Accelerations()

	s, err := New(Config{Ranks: 4, Theta: 0.4, Softening: 0.05, DomainFreq: 1, External: ext}, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.ComputeForces()
	acc, pot := s.Accelerations()

	ps := s.Particles()
	for i := range ps {
		ea, ep := ext(ps[i].Pos)
		wantAcc := baseAcc[i].Add(ea)
		if acc[i].Sub(wantAcc).Norm() > grav.KernelTol()*(1+wantAcc.Norm()) {
			t.Fatalf("particle %d: acc %v, want self+ext %v", i, acc[i], wantAcc)
		}
		wantPot := basePot[i] + ep
		if math.Abs(pot[i]-wantPot) > grav.KernelTol()*(1+math.Abs(wantPot)) {
			t.Fatalf("particle %d: pot %v, want self+ext %v (self %v, ext %v)",
				i, pot[i], wantPot, basePot[i], ep)
		}
	}

	// Energy bookkeeping: total potential energy = ½ Σ m·self + Σ m·ext.
	_, potE := s.Energy()
	var want float64
	for i := range ps {
		_, ep := ext(ps[i].Pos)
		want += 0.5*ps[i].Mass*basePot[i] + ps[i].Mass*ep
	}
	if math.Abs(potE-want) > grav.KernelTol()*(1+math.Abs(want)) {
		t.Errorf("potential energy %v, want %v", potE, want)
	}
}

// TestFirstStepSingleDomainExchange: the seed code ran the domain
// decomposition and all-to-all particle exchange twice in the first Step()
// (once in the t=0 priming force evaluation and again in the post-drift
// evaluation, both at step 0). With a bitwise-negligible DT the particle
// state is identical at every evaluation, so message counts metered by the
// World must satisfy: first Step = one domain-updating evaluation (measured
// on a twin simulation via ComputeForces) + one plain evaluation (measured
// from a later no-update step).
func TestFirstStepSingleDomainExchange(t *testing.T) {
	mk := func() *Simulation {
		// DT small enough that pos + v*DT rounds to pos exactly: every
		// force evaluation sees bitwise-identical particles.
		s, err := New(Config{Ranks: 6, Theta: 0.4, Softening: 0.05, DT: 1e-300, DomainFreq: 4},
			plummer(1800, 65))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Twin A: one force evaluation with domain update.
	a := mk()
	a.ComputeForces()
	withDomain := a.World().TotalMessages()

	// Twin B: first Step (priming + post-drift evaluations), then a second
	// Step at step 1 (1 % 4 != 0: a plain evaluation, no domain work).
	b := mk()
	b.Step()
	firstStep := b.World().TotalMessages()
	b.Step()
	plain := b.World().TotalMessages() - firstStep
	b.Step()
	plain2 := b.World().TotalMessages() - firstStep - plain
	if plain != plain2 {
		t.Fatalf("steady-state steps differ in message count (%d vs %d); test assumptions broken", plain, plain2)
	}

	if firstStep != withDomain+plain {
		t.Errorf("first Step sent %d messages, want %d (one domain-updating evaluation %d + one plain %d): domain update ran twice?",
			firstStep, withDomain+plain, withDomain, plain)
	}
}

// TestZeroAndTinyRankOverlap: empty or near-empty ranks must not deadlock
// the receiver/builder/compute pipeline.
func TestZeroAndTinyRankOverlap(t *testing.T) {
	parts := ic.Plummer(64, 1, 0.01, 1, 66)
	s, err := New(Config{Ranks: 8, WorkersPerRank: 2, Softening: 0.01, DomainFreq: 1}, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2)
	if len(s.Particles()) != 64 {
		t.Fatal("particles lost")
	}
}
