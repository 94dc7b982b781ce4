package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"bonsai"
	"bonsai/internal/obs"
)

// TestMain lets the test binary stand in for the bonsai command: with
// BONSAI_TEST_AS_CMD set it runs main() on its arguments. The launcher forks
// os.Executable() with the environment inherited, so the workers it spawns
// come back through here too.
func TestMain(m *testing.M) {
	if os.Getenv("BONSAI_TEST_AS_CMD") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// bonsaiCmd runs the command with the given flags inside dir.
func bonsaiCmd(t *testing.T, dir string, args ...string) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "BONSAI_TEST_AS_CMD=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("bonsai %v: %v\n%s", args, err, out)
	}
}

// TestMultiProcessSnapshotsAndRestore holds the socket-transport path to what
// the in-process path already did: -snap-every writes loadable snapshots of
// the whole particle set, and -restore with -block-steps keeps the rungs the
// snapshot carries instead of re-assigning them from fresh accelerations.
func TestMultiProcessSnapshotsAndRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("forks 8 worker processes")
	}
	const n = 2000
	dir := t.TempDir()
	bonsaiCmd(t, dir, "-model", "plummer", "-n", "2000", "-ranks", "4", "-transport", "unix",
		"-steps", "4", "-snap-every", "2", "-snap-prefix", "mp", "-q", "-ckpt-dir", filepath.Join(dir, "ckpt1"))
	var parts []bonsai.Particle
	for _, name := range []string{"mp_00002.snap", "mp_00004.snap"} {
		_, _, got, err := bonsai.LoadSnapshot(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("%s holds %d particles, want %d", name, len(got), n)
		}
		parts = got
	}

	// A rung population the acceleration criterion would not produce: every
	// particle on the finest rung, under a time step so short the criterion
	// puts them all on the coarsest.
	const maxRungs = 2
	for i := range parts {
		parts[i].Rung = maxRungs
	}
	if err := bonsai.SaveSnapshot(filepath.Join(dir, "fine.snap"), 0, 0, parts); err != nil {
		t.Fatal(err)
	}
	bonsaiCmd(t, dir, "-restore", "fine.snap", "-ranks", "4", "-transport", "unix", "-steps", "1",
		"-block-steps", "-max-rungs", "2", "-dt", "1e-9", "-eps", "0.05", "-q",
		"-metrics", "m.jsonl", "-ckpt-dir", filepath.Join(dir, "ckpt2"))
	f, err := os.Open(filepath.Join(dir, "m.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadMetricsJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	primed := 0
	for _, m := range recs {
		if m.Step != 0 {
			continue
		}
		primed++
		if len(m.RungPop) != maxRungs+1 || m.RungPop[maxRungs] != n {
			t.Errorf("rank %d: rung population at the priming evaluation is %v, want all %d particles on rung %d",
				m.Rank, m.RungPop, n, maxRungs)
		}
	}
	if primed == 0 {
		t.Fatal("metrics stream has no record of the priming evaluation")
	}
}
