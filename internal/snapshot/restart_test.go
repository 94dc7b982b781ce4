// Restarting a block-timestep run from a snapshot file taken at a
// top-of-step barrier — the end-to-end flow the v2 format's rung bytes exist
// for. Lives in an external test package: sim imports snapshot for
// checkpoints, so the in-package test would be an import cycle.
package snapshot_test

import (
	"math"
	"path/filepath"
	"testing"

	"bonsai/internal/ic"
	"bonsai/internal/sim"
	"bonsai/internal/snapshot"
)

func TestSubstepBarrierRestartThroughFile(t *testing.T) {
	parts := ic.Plummer(800, 1, 0.1, 1, 71)
	cfg := sim.Config{
		Ranks: 2, Theta: 0.3, Softening: 0.01, DT: 4e-3,
		BlockSteps: true, MaxRungs: 3, EtaDT: 0.1,
	}

	// Continuous reference: 3 top-level steps.
	s1, err := sim.New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	s1.Run(3)
	want := s1.Particles()

	// Interrupted run: one step, snapshot to disk at its top-of-step barrier.
	s2, err := sim.New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	s2.Step()
	path := filepath.Join(t.TempDir(), "step1.bin")
	if err := snapshot.Save(path, snapshot.Header{Time: s2.Time(), Step: int64(s2.StepCount())}, s2.Particles()); err != nil {
		t.Fatal(err)
	}

	// Restore: the header carries step and time, the records carry the rungs,
	// which the restored run keeps because some are above 0.
	gh, gparts, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	spread := false
	for _, p := range gparts {
		spread = spread || p.Rung > 0
	}
	if !spread {
		t.Fatal("snapshot carries no rungs above 0; rungs never spread")
	}
	s3, err := sim.New(cfg, gparts)
	if err != nil {
		t.Fatal(err)
	}
	s3.SetClock(int(gh.Step), gh.Time)
	s3.Run(2)
	got := s3.Particles()

	var sum2, ref2 float64
	for i := range want {
		sum2 += got[i].Pos.Sub(want[i].Pos).Norm2()
		ref2 += want[i].Pos.Norm2()
	}
	if rms := math.Sqrt(sum2 / ref2); rms > 1e-4 {
		t.Errorf("file restart from a top-of-step barrier diverged: rms %v", rms)
	}
}
