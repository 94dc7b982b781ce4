package bonsai

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"
)

// digestSteps crosses the first domain epoch past the priming one (every
// fourth step decomposes afresh).
const digestSteps = 6

// stateDigest is the SHA-256 of every particle's (ID, Pos, Vel, Mass, Rung)
// in ID order: two runs are bitwise the same exactly when their digests are.
func stateDigest(parts []Particle) string {
	parts = slices.Clone(parts)
	slices.SortFunc(parts, func(a, b Particle) int { return cmp.Compare(a.ID, b.ID) })
	h := sha256.New()
	var b [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(b[:], uint64(p.ID))
		h.Write(b[:])
		for _, f := range [...]float64{p.Pos.X, p.Pos.Y, p.Pos.Z, p.Vel.X, p.Vel.Y, p.Vel.Z, p.Mass} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			h.Write(b[:])
		}
		h.Write([]byte{p.Rung})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// inProcessState runs cfg on parts for digestSteps in one Simulation.
func inProcessState(t *testing.T, cfg Config, parts []Particle) []Particle {
	t.Helper()
	s, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(digestSteps)
	return s.Particles()
}

// unixState runs cfg on parts for digestSteps as one NodeSimulation per rank
// over a unix-socket world.
func unixState(t *testing.T, cfg Config, parts []Particle) []Particle {
	t.Helper()
	nodes := newUnixNodes(t, cfg, parts)
	nodes.each(func(n *NodeSimulation) {
		for range digestSteps {
			n.Step()
		}
	})
	var all []Particle
	nodes.each(func(n *NodeSimulation) {
		if got := n.GatherParticles(0); n.Rank() == 0 {
			all = got
		}
	})
	return all
}

// TestStateDigests runs the benchmark's four workload configurations two
// ways each — worker counts, or drivers and transports — and requires the
// final particle states to be bitwise equal. It logs each state's digest, so
// two versions of the code can be checked for identical arithmetic by
// comparing `make digests` output.
func TestStateDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("six steps of four workloads, each run twice")
	}
	const nMW = 16384
	mw := NewMilkyWay(nMW, 1)
	mwCfg := func(ranks, workers int) Config {
		return Config{Ranks: ranks, WorkersPerRank: workers, Theta: 0.4,
			Softening: SofteningForN(nMW), DT: SuggestedDT(nMW), GravConst: G}
	}
	blobs := exchangeBlobs(64, 500, 1)
	blobsCfg := func(workers int) Config {
		return Config{Ranks: 64, WorkersPerRank: workers, Theta: 0.4, Softening: 0.05}
	}
	plummer := NewPlummer(8192, 1, 0.1, 1, 1)
	blockCfg := Config{Ranks: 2, WorkersPerRank: 1, Theta: 0.4, Softening: 0.01, GravConst: 1,
		DT: 4e-3, BlockSteps: true, MaxRungs: 4, EtaDT: 0.055}

	for _, c := range []struct {
		name, a, b string
		runA, runB func() []Particle
	}{
		{"mw_p1", "1 worker", "2 workers",
			func() []Particle { return inProcessState(t, mwCfg(1, 1), mw) },
			func() []Particle { return inProcessState(t, mwCfg(1, 2), mw) }},
		{"mw_p4", "in-process", "unix nodes",
			func() []Particle { return inProcessState(t, mwCfg(4, 1), mw) },
			func() []Particle { return unixState(t, mwCfg(4, 1), mw) }},
		{"blobs_p64", "1 worker", "2 workers",
			func() []Particle { return inProcessState(t, blobsCfg(1), blobs) },
			func() []Particle { return inProcessState(t, blobsCfg(2), blobs) }},
		{"plummer_block_p2", "in-process", "unix nodes",
			func() []Particle { return inProcessState(t, blockCfg, plummer) },
			func() []Particle { return unixState(t, blockCfg, plummer) }},
	} {
		a, b := stateDigest(c.runA()), stateDigest(c.runB())
		t.Logf("%-16s sha256 %s", c.name, a)
		if a != b {
			t.Errorf("%s: %s digest %s, %s digest %s", c.name, c.a, a, c.b, b)
		}
	}
}
