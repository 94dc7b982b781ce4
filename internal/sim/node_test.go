package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/mpi"
	"bonsai/internal/obs"
	"bonsai/internal/snapshot"
)

// newTestSockWorld builds an all-local socket world of the given size.
func newTestSockWorld(t *testing.T, network string, size int) *mpi.World {
	t.Helper()
	addrs := make([]string, size)
	local := make([]int, size)
	switch network {
	case "tcp":
		for i := range addrs {
			addrs[i] = "127.0.0.1:0"
		}
	case "unix":
		dir, err := os.MkdirTemp("", "bonsai-sock")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
		for i := range addrs {
			addrs[i] = filepath.Join(dir, fmt.Sprintf("r%d.sock", i))
		}
	}
	for i := range local {
		local[i] = i
	}
	w, err := mpi.NewSocketWorld(size, mpi.SocketConfig{Network: network, Addrs: addrs, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// fleet is one Node per rank of a world, driven in lockstep from the test
// goroutine: what Simulation is for a channel world, over any transport.
type fleet []*Node

// newFleet creates the nodes of w from identical global initial conditions.
func newFleet(t *testing.T, cfg Config, w *mpi.World, parts []body.Particle) fleet {
	t.Helper()
	size := w.Size()
	f := make(fleet, size)
	for r := range f {
		n, err := NewNode(cfg, w, r, SliceForRank(parts, r, size))
		if err != nil {
			t.Fatal(err)
		}
		f[r] = n
	}
	return f
}

// each runs fn on every node concurrently and waits: one collective round.
func (f fleet) each(fn func(n *Node)) {
	var wg sync.WaitGroup
	for _, n := range f {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			fn(n)
		}(n)
	}
	wg.Wait()
}

// Step runs one collective Step on every node and returns the cross-rank
// fold of their step records.
func (f fleet) Step() (m obs.StepMetrics) {
	recs := make([]obs.StepMetrics, len(f))
	f.each(func(n *Node) { recs[n.Rank()] = n.Step() })
	obs.FoldRanks(&m, recs)
	return m
}

func (f fleet) SetClock(step int, time float64) {
	for _, n := range f {
		n.SetClock(step, time)
	}
}

func (f fleet) StepCount() int { return f[0].StepCount() }
func (f fleet) Time() float64  { return f[0].Time() }

// Particles runs the collective GatherParticles on every node and returns
// root's view.
func (f fleet) Particles() (got []body.Particle) {
	f.each(func(n *Node) {
		if g := n.GatherParticles(0); n.Rank() == 0 {
			got = g
		}
	})
	return got
}

// runNodes drives one Node per rank of w concurrently for steps steps, from
// identical global initial conditions.
func runNodes(t *testing.T, cfg Config, w *mpi.World, parts []body.Particle, steps int) fleet {
	t.Helper()
	f := newFleet(t, cfg, w, parts)
	f.each(func(n *Node) {
		for i := 0; i < steps; i++ {
			n.Step()
		}
	})
	return f
}

func TestNodeSocketMatchesInProcess(t *testing.T) {
	// Acceptance: an 8-rank run over the unix-socket transport reproduces the
	// in-process Simulation bitwise. LET arrival order differs between
	// transports, but every rank sums its remote trees in one pass in peer
	// order, so it cannot change a result.
	const (
		ranks = 8
		nPart = 1600
		steps = 6
	)
	cfg := Config{Ranks: ranks, DT: 1e-3}
	parts := plummer(nPart, 42)

	s, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(steps)

	w := newTestSockWorld(t, "unix", ranks)
	nodes := runNodes(t, cfg, w, parts, steps)
	exactlyEqual(t, nodes.Particles(), s.Particles(), "unix socket vs in-process")
}

func TestNodeTCPPairBytesConsistentWithDeclared(t *testing.T) {
	// Acceptance: PairBytes over TCP reports real framed bytes, consistent
	// (±20%) with the sender-declared sizes (BytesSent) for the same run —
	// the typed codec's encodings match the WireBytes the sim declares, so
	// the two meters differ only by frame headers and small-message padding.
	const (
		ranks = 4
		nPart = 800
		steps = 3
	)
	cfg := Config{Ranks: ranks, DT: 1e-3}
	parts := plummer(nPart, 7)
	w := newTestSockWorld(t, "tcp", ranks)
	w.MeterPairs()
	runNodes(t, cfg, w, parts, steps)

	var framed, declared int64
	for from := 0; from < ranks; from++ {
		declared += w.BytesSent(from)
		for to := 0; to < ranks; to++ {
			framed += w.PairBytes(from, to)
		}
	}
	if declared == 0 || framed == 0 {
		t.Fatalf("no traffic metered: declared %d framed %d", declared, framed)
	}
	ratio := float64(framed) / float64(declared)
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("framed/declared = %.3f (framed %d, declared %d), want within ±20%%",
			ratio, framed, declared)
	}
}

func TestNodeCheckpointRestartMatchesContinuous(t *testing.T) {
	// A run checkpointed at step 2 and resumed by fresh Nodes must finish
	// bitwise identical to one that never stopped.
	const (
		ranks = 4
		nPart = 800
		total = 4
		at    = 2
	)
	cfg := Config{Ranks: ranks, DT: 1e-3}
	parts := plummer(nPart, 11)

	// Continuous reference.
	wRef := mpi.NewWorld(ranks)
	ref := runNodes(t, cfg, wRef, parts, total)
	want := ref.Particles()

	// Run to the checkpoint, write it, throw the nodes away.
	dir := t.TempDir()
	w1 := mpi.NewWorld(ranks)
	nodes := runNodes(t, cfg, w1, parts, at)
	nodes.each(func(n *Node) {
		if err := n.Checkpoint(dir); err != nil {
			t.Error(err)
		}
	})

	step, nr, ok := snapshot.LatestCkpt(dir)
	if !ok || step != at || nr != ranks {
		t.Fatalf("LatestCkpt = (%d, %d, %v), want (%d, %d, true)", step, nr, ok, at, ranks)
	}

	// Fresh world, fresh nodes, restored slices — like restarted processes.
	w2 := mpi.NewWorld(ranks)
	resumed := make(fleet, ranks)
	for r := 0; r < ranks; r++ {
		h, restored, err := snapshot.LoadRankCkpt(dir, step, r)
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(cfg, w2, r, restored)
		if err != nil {
			t.Fatal(err)
		}
		n.SetClock(int(h.Step), h.Time)
		resumed[r] = n
	}
	resumed.each(func(n *Node) {
		for i := 0; i < total-at; i++ {
			n.Step()
		}
	})
	exactlyEqual(t, resumed.Particles(), want, "restarted vs continuous")
}
