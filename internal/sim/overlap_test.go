package sim

import (
	"testing"

	"bonsai/internal/ic"
)

// TestOverlapPipelineDeterministic: however the builder pool, the mailbox
// polls and the local walk interleave, each rank sums its remote trees in one pass
// in peer order, so an 8-rank evaluation is bitwise the same under one
// worker per rank and under two, and it matches direct summation.
func TestOverlapPipelineDeterministic(t *testing.T) {
	parts := plummer(3000, 61)
	run := func(workers int) *Simulation {
		s, err := New(Config{
			Ranks: 8, WorkersPerRank: workers, Theta: 0.4, Softening: 0.05,
		}, parts)
		if err != nil {
			t.Fatal(err)
		}
		s.ComputeForces()
		return s
	}
	one, two := run(1), run(2)
	acc1, pot1 := one.Accelerations()
	acc2, pot2 := two.Accelerations()
	for i := range acc1 {
		if acc1[i] != acc2[i] || pot1[i] != pot2[i] {
			t.Fatalf("particle %d: acc %v pot %v under 1 worker, %v %v under 2 (must be bitwise)",
				i, acc1[i], pot1[i], acc2[i], pot2[i])
		}
	}
	if rms := rmsAccError(t, two, 0.05); rms > 2e-3 {
		t.Errorf("rms acc error %v vs direct", rms)
	}
}

// TestOverlapCountersConsistent: the new overlap-efficiency counters must be
// populated and internally consistent at 8 ranks.
func TestOverlapCountersConsistent(t *testing.T) {
	parts := plummer(6000, 62)
	s, err := New(Config{Ranks: 8, WorkersPerRank: 2, Theta: 0.4, Softening: 0.05}, parts)
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
}

// TestOverlapPipelineStress drives the full pipeline — parallel walks,
// builder pool, mailbox polls, batched remote passes — across several
// steps at 8 ranks with multiple workers, two of them domain epochs (the
// priming evaluation and step 4). Run under -race this is the
// regression net for the concurrency structure; accuracy is pinned against
// direct summation.
func TestOverlapPipelineStress(t *testing.T) {
	parts := plummer(2500, 63)
	s, err := New(Config{
		Ranks: 8, WorkersPerRank: 4,
		Theta: 0.4, Softening: 0.05, DT: 1e-3,
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(domainFreq + 1)
	if len(s.Particles()) != 2500 {
		t.Fatal("particles lost")
	}
	if rms := rmsAccError(t, s, 0.05); rms > 2e-3 {
		t.Errorf("rms acc error %v vs direct after pipelined steps", rms)
	}
}

// TestFirstStepSingleDomainExchange: the seed code ran the domain
// decomposition and all-to-all particle exchange twice in the first Step()
// (once in the t=0 priming force evaluation and again in the post-drift
// evaluation, both at step 0). With a bitwise-negligible DT the particle
// state is identical at every evaluation, so message counts metered by the
// World must satisfy: first Step = one domain-updating evaluation (measured
// on a twin simulation via ComputeForces) + one plain evaluation (measured
// from a later no-update step). The same counts pin the epoch schedule: the
// steps up to domainFreq are plain, and step domainFreq sends exactly one
// domain-updating evaluation's messages.
func TestFirstStepSingleDomainExchange(t *testing.T) {
	mk := func() *Simulation {
		// DT small enough that pos + v*DT rounds to pos exactly: every
		// force evaluation sees bitwise-identical particles.
		s, err := New(Config{Ranks: 6, Theta: 0.4, Softening: 0.05, DT: 1e-300},
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

	// Twin B: steps 0 to domainFreq. The first Step runs the priming and the
	// post-drift evaluations; steps 1 to domainFreq-1 run one plain
	// evaluation each, no domain work; step domainFreq closes with the next
	// domain epoch.
	b := mk()
	msgs := make([]int64, domainFreq+1)
	for i := range msgs {
		before := b.World().TotalMessages()
		b.Step()
		msgs[i] = b.World().TotalMessages() - before
	}
	firstStep, plain := msgs[0], msgs[1]
	for i := 2; i < domainFreq; i++ {
		if msgs[i] != plain {
			t.Fatalf("steady-state steps differ in message count (%v); test assumptions broken", msgs)
		}
	}

	if firstStep != withDomain+plain {
		t.Errorf("first Step sent %d messages, want %d (one domain-updating evaluation %d + one plain %d): domain update ran twice?",
			firstStep, withDomain+plain, withDomain, plain)
	}
	if msgs[domainFreq] != withDomain {
		t.Errorf("step %d sent %d messages, want %d (one domain-updating evaluation): the epoch did not run", domainFreq, msgs[domainFreq], withDomain)
	}
}

// TestZeroAndTinyRankOverlap: empty or near-empty ranks must not deadlock
// the builder/compute pipeline, across a domain epoch (step 4).
func TestZeroAndTinyRankOverlap(t *testing.T) {
	parts := ic.Plummer(64, 1, 0.01, 1, 66)
	s, err := New(Config{Ranks: 8, WorkersPerRank: 2, Softening: 0.01}, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(domainFreq + 1)
	if len(s.Particles()) != 64 {
		t.Fatal("particles lost")
	}
}
