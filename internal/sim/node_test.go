package sim

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/grav"
	"bonsai/internal/mpi"
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

func (f fleet) SubstepN(k int) (done bool, err error) {
	f.each(func(n *Node) {
		if d, e := n.SubstepN(k); n.Rank() == 0 {
			done, err = d, e
		}
	})
	return done, err
}

func (f fleet) RestoreSubstep(sub int) (err error) {
	for _, n := range f {
		if e := n.RestoreSubstep(sub); e != nil {
			err = e
		}
	}
	return err
}

func (f fleet) SetClock(step int, time float64) {
	for _, n := range f {
		n.SetClock(step, time)
	}
}

func (f fleet) Substep() int   { return f[0].Substep() }
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

// rmsPosDiff returns the rms position difference between two equally ordered
// particle sets.
func rmsPosDiff(t *testing.T, a, b []body.Particle) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("particle count mismatch: %d vs %d", len(a), len(b))
	}
	var sum float64
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("particle %d: id %d vs %d", i, a[i].ID, b[i].ID)
		}
		d := a[i].Pos.Sub(b[i].Pos)
		sum += d.Norm2()
	}
	return math.Sqrt(sum / float64(len(a)))
}

func TestNodeSocketMatchesInProcess(t *testing.T) {
	// Acceptance: an 8-rank run over the unix-socket transport reproduces the
	// in-process Simulation to rms < grav.KernelTol (1e-12 on the float64
	// tier). The runs are not bitwise identical — LET arrival order differs
	// between transports, and it decides the order of the sums and which
	// trees share a kernel call — but the jitter stays at rounding level.
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
	want := s.Particles()

	w := newTestSockWorld(t, "unix", ranks)
	nodes := runNodes(t, cfg, w, parts, steps)
	got := nodes.Particles()

	tol := grav.KernelTol()
	if rms := rmsPosDiff(t, want, got); rms >= tol {
		t.Errorf("rms position difference chan vs unix socket = %g, want < %g", rms, tol)
	}
	for i := range want {
		d := want[i].Vel.Sub(got[i].Vel)
		if d.Norm() >= 100*tol {
			t.Errorf("particle id %d velocity differs by %g", want[i].ID, d.Norm())
			break
		}
	}
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
	w.EnableObs(nil)
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
	// bitwise identical to one that never stopped: same transport, same
	// arrival determinism modulo LET ordering — so compare at rounding level.
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
	got := resumed.Particles()
	if rms := rmsPosDiff(t, want, got); rms >= 1e-12 {
		t.Errorf("rms position difference continuous vs restarted = %g, want < 1e-12", rms)
	}
}
