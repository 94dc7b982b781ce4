package main

import (
	"fmt"
	"log"

	"bonsai"
)

// runWorker is one rank of a multi-process run: it joins the socket world,
// restores state (newest committed checkpoint first, then -restore, then
// fresh ICs), and steps in lockstep with the other ranks, checkpointing every
// ckpt-every steps so a killed team can resume.
func runWorker(lc launchConfig, rank int, f simFlags) {
	log.SetPrefix(fmt.Sprintf("bonsai[rank %d]: ", rank))
	w, err := bonsai.NewSocketWorld(lc.ranks, lc.transport, lc.rankAddrs(), []int{rank})
	if err != nil {
		log.Fatal(err)
	}
	r := newRun(f, lc.obs.on())

	// State precedence: a committed checkpoint of this run beats everything
	// (that is what a post-crash respawn resumes from); otherwise start from
	// the rank's slice of the global set.
	parts := bonsai.SliceForRank(r.parts, rank, lc.ranks)
	ckptStep, ckptTime := 0, 0.0
	if step, ranks, ok := bonsai.LatestCheckpoint(lc.ckptDir); ok {
		if ranks != lc.ranks {
			log.Fatalf("checkpoint in %s was written by %d ranks, this run has %d", lc.ckptDir, ranks, lc.ranks)
		}
		t, restored, err := bonsai.LoadRankCheckpoint(lc.ckptDir, step, rank)
		if err != nil {
			log.Fatal(err)
		}
		parts, ckptStep, ckptTime = restored, step, t
	}

	n, err := bonsai.NewNodeSimulation(r.cfg, w, rank, parts)
	if err != nil {
		log.Fatal(err)
	}
	if ckptStep > 0 {
		n.SetClock(ckptStep, ckptTime)
		if rank == 0 {
			fmt.Printf("resuming from checkpoint at step %d (t=%.4f)\n", ckptStep, ckptTime)
		}
	}
	if rank == 0 {
		r.printHeader("separate processes, " + lc.transport + " transport")
	}

	gather := func() []bonsai.Particle { return n.GatherParticles(0) }
	r.loop(n, rank == 0, gather, func() {
		if lc.ckptEvery > 0 && n.StepCount()%lc.ckptEvery == 0 && n.StepCount() < r.steps {
			if err := n.Checkpoint(lc.ckptDir); err != nil {
				log.Fatal(err)
			}
			if rank == 0 && !r.quiet {
				fmt.Printf("  checkpoint -> %s (step %d)\n", lc.ckptDir, n.StepCount())
			}
		}
	})

	k, p := n.Energy()
	if rank == 0 {
		r.printDone(n.Time(), k, p, "comm(rank0)", w.CommBytes())
	}
	if lc.obs.on() {
		skew, err := n.GatherTelemetry()
		if err != nil {
			log.Fatal(err)
		}
		if rank == 0 {
			fmt.Printf("telemetry: %d rank clocks aligned on rank 0's, residual skew bound %v\n", lc.ranks, skew)
			lc.obs.write(n)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
}
