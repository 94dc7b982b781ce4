package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/grav"
	"bonsai/internal/lettree"
	"bonsai/internal/mpi"
	"bonsai/internal/obs"
	"bonsai/internal/vec"
)

// peerTrees returns what every peer of rank me holds for it after an
// evaluation of s: the peer's boundary tree and, where that tree cannot serve
// me's targets, the full LET the peer owes (nil otherwise). Index me is nil.
func peerTrees(s *Simulation, me int) (bts, lets []*lettree.LET) {
	r := s.nodes[me].r
	myBox := body.Bounds(r.parts)
	bts, lets = make([]*lettree.LET, len(s.nodes)), make([]*lettree.LET, len(s.nodes))
	for j, n := range s.nodes {
		if j == me {
			continue
		}
		box := body.Bounds(n.r.parts)
		bts[j] = lettree.BoundaryTree(n.r.tree, r.cfg.BoundaryDepth, box)
		if !lettree.Sufficient(bts[j], myBox, r.cfg.Theta) {
			lets[j] = lettree.BuildFor(n.r.tree, myBox, r.cfg.Theta, box)
		}
	}
	return bts, lets
}

// TestSchedulerScriptedArrivals runs one rank's gravity phase against scripted
// peers, once per schedule: the test plays the other p−1 ranks over a fresh
// chan world, delivering their boundary trees and the full LETs they owe in a
// scripted order — a prefix sitting in the mailbox before the phase starts,
// the rest pushed while it runs, LETs free to overtake other peers' boundary
// trees. Whatever the order, the SerialLET schedule must reproduce the
// reference evaluation's accelerations bitwise, and on the pipelined schedule
// every remote tree must be walked exactly once: LETsRecv + BoundaryUsed
// equals the p−1 pair slots, the passes' tree counts sum to p−1, the
// interaction counts are those of the SerialLET evaluation of the same state,
// and the forces agree with it to reassociation error.
func TestSchedulerScriptedArrivals(t *testing.T) {
	const p, me = 7, 3
	// Three well-separated clumps over seven ranks: ranks sharing a clump owe
	// each other full LETs, ranks in different clumps are served by boundary
	// trees.
	var parts []body.Particle
	for c, clump := range [][]body.Particle{plummer(1200, 71), plummer(1200, 72), plummer(1200, 73)} {
		for _, q := range clump {
			q.Pos.X += 40 * float64(c)
			q.ID = int64(len(parts))
			parts = append(parts, q)
		}
	}
	s, err := New(Config{Ranks: p, WorkersPerRank: 2, Theta: 0.4, Softening: 0.05, SerialLET: true}, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.ComputeForces()
	ref := s.nodes[me].r

	// What each peer pushes to rank me: its boundary tree, and a full LET
	// when that tree cannot serve me's targets.
	type push struct {
		from, tag int
		let       *lettree.LET
	}
	var script []push
	owed := 0
	bts, lets := peerTrees(s, me)
	for j := range bts {
		if j == me {
			continue
		}
		script = append(script, push{j, tagBoundaryBase, bts[j]})
		if lets[j] != nil {
			script = append(script, push{j, tagLETBase, lets[j]})
			owed++
		}
	}
	if owed == 0 || owed == p-1 {
		t.Fatalf("%d of %d peers owe a full LET: the test wants both kinds of remote tree", owed, p-1)
	}

	// phase runs rank me's gravity phase on the given schedule against the
	// script shuffled by seed, the first seed%(len+1) pushes delivered early.
	phase := func(seed int64, serial bool) (*rank, *obs.Recorder) {
		rng := rand.New(rand.NewSource(seed))
		order := append([]push(nil), script...)
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		early := int(seed) % (len(order) + 1) // seed 0: everything arrives while the phase runs

		w := mpi.NewWorld(p)
		send := func(m push) { w.Comm(m.from).Send(me, m.tag, m.let, m.let.WireBytes()) }
		for _, m := range order[:early] {
			send(m)
		}
		rec := obs.New(p, 0)
		cfg := *ref.cfg
		cfg.SerialLET = serial
		r := &rank{
			cfg: &cfg, comm: w.Comm(me), obs: rec.Rank(me),
			parts: ref.parts, pos: ref.pos, mass: ref.mass, tree: ref.tree, groups: ref.groups,
			acc: make([]vec.V3, len(ref.acc)), pot: make([]float64, len(ref.pot)),
		}

		late := make(chan struct{})
		go func() {
			defer close(late)
			w.Comm(order[0].from).Recv(me, tagBoundaryBase) // the phase has started
			for _, m := range order[early:] {
				send(m)
			}
		}()
		tg := r.fullTargets()
		r.gravity(0, &tg)
		r.finishForces(&tg)
		<-late
		return r, rec
	}

	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprint("script", seed), func(t *testing.T) {
			r, _ := phase(seed, true)
			for i := range r.acc {
				if r.acc[i] != ref.acc[i] || r.pot[i] != ref.pot[i] {
					t.Fatalf("SerialLET phase: particle %d acc %v pot %v, reference evaluation %v %v (must be bitwise)",
						i, r.acc[i], r.pot[i], ref.acc[i], ref.pot[i])
				}
			}
			if r.stats.Stats != ref.stats.Stats || r.stats.LETsRecv != owed || r.stats.BoundaryUsed != p-1-owed {
				t.Fatalf("SerialLET phase: stats %+v, reference %+v", r.stats, ref.stats)
			}

			r, rec := phase(seed, false)
			st := r.stats
			if st.LETsRecv != owed || st.LETsRecv+st.BoundaryUsed != p-1 {
				t.Fatalf("%d LETs + %d boundary trees walked, want %d + %d", st.LETsRecv, st.BoundaryUsed, owed, p-1-owed)
			}
			if st.Stats != ref.stats.Stats {
				t.Fatalf("interaction counts %+v, SerialLET evaluation %+v: a remote tree was dropped or walked twice", st.Stats, ref.stats.Stats)
			}
			trees := int64(0)
			for _, sp := range rec.Rank(me).Spans() {
				if sp.Phase == obs.PhaseWalkLET || sp.Phase == obs.PhaseWalkBound {
					trees += sp.Arg
				}
			}
			if trees != p-1 {
				t.Fatalf("pass spans count %d trees, want %d", trees, p-1)
			}
			var sum2, ref2 float64
			for i := range r.acc {
				sum2 += r.acc[i].Sub(ref.acc[i]).Norm2()
				ref2 += ref.acc[i].Norm2()
			}
			if rms := math.Sqrt(sum2 / ref2); rms > grav.KernelTol() {
				t.Fatalf("scripted pipelined forces diverge from the SerialLET evaluation: rms %v", rms)
			}
		})
	}
}
