package main

import (
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
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

// bonsaiRun runs the command with the given flags inside dir, with env added
// to the environment, and returns its combined output.
func bonsaiRun(t *testing.T, dir string, env []string, args ...string) (string, error) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, args...)
	cmd.Dir = dir
	cmd.Env = append(append(os.Environ(), "BONSAI_TEST_AS_CMD=1"), env...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// bonsaiCmd runs the command with the given flags inside dir and fails the
// test unless it exits 0.
func bonsaiCmd(t *testing.T, dir string, args ...string) {
	t.Helper()
	if out, err := bonsaiRun(t, dir, nil, args...); err != nil {
		t.Fatalf("bonsai %v: %v\n%s", args, err, out)
	}
}

// TestSizeFlagsRejected: a particle or rank count below 1 is a usage error,
// exit status 2 with the message, raised before any particle is generated
// (-ranks 0 used to divide by zero, -n -5 to panic in makeslice).
func TestSizeFlagsRejected(t *testing.T) {
	for _, args := range [][]string{{"-ranks", "0"}, {"-n", "-5"}} {
		t.Run(strings.Join(args, ""), func(t *testing.T) {
			out, err := bonsaiRun(t, t.TempDir(), nil, args...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
				!strings.Contains(out, "must be at least 1") || strings.Contains(out, "panic:") {
				t.Errorf("bonsai %v: %v, want a usage error\n%s", args, err, out)
			}
		})
	}
}

// TestLauncherRemovesItsCheckpointDir: without -ckpt-dir the launcher keeps
// its checkpoints in a fresh bonsai-ckpt* directory under TMPDIR, and a run
// whose team finishes cleanly removes it.
func TestLauncherRemovesItsCheckpointDir(t *testing.T) {
	if testing.Short() {
		t.Skip("forks 2 worker processes")
	}
	tmp := t.TempDir()
	out, err := bonsaiRun(t, t.TempDir(), []string{"TMPDIR=" + tmp}, "-model", "plummer", "-n", "1000",
		"-ranks", "2", "-steps", "1", "-q", "-transport", "unix", "-max-restarts", "0")
	if err != nil {
		t.Fatalf("bonsai: %v\n%s", err, out)
	}
	if !strings.Contains(out, "checkpoints -> "+tmp) {
		t.Fatalf("the run did not keep its checkpoints under TMPDIR %s:\n%s", tmp, out)
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "bonsai-ckpt*")); len(left) > 0 {
		t.Errorf("a clean run left %v behind", left)
	}
}

// TestMultiProcessSnapshotsAndRestore holds the socket-transport path to what
// the in-process path already did: -snap-every writes loadable snapshots of
// the whole particle set, and -restore with -max-rungs keeps the rungs the
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
		"-max-rungs", "2", "-dt", "1e-9", "-eps", "0.05", "-q",
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

// A traced socket run opens no listener beside its ranks' own: a tcp run
// finishes with 127.0.0.1:29600 held by another process (the default port of
// the per-worker debug servers traced runs used to open), and a unix run
// leaves no socket file in its socket directory but the ranks'.
func TestTracedRunOpensNoDebugListener(t *testing.T) {
	if testing.Short() {
		t.Skip("forks 4 worker processes")
	}
	held, err := net.Listen("tcp", "127.0.0.1:29600")
	if err != nil {
		t.Skipf("cannot hold 127.0.0.1:29600: %v", err)
	}
	defer held.Close()

	dir := t.TempDir()
	bonsaiCmd(t, dir, "-model", "plummer", "-n", "1000", "-ranks", "2", "-steps", "1", "-q",
		"-transport", "tcp", "-port-base", strconv.Itoa(freePortPair(t)), "-max-restarts", "0",
		"-metrics", "m.jsonl", "-ckpt-dir", filepath.Join(dir, "ckpt-tcp"))
	f, err := os.Open(filepath.Join(dir, "m.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if recs, err := obs.ReadMetricsJSONL(f); err != nil || len(recs) == 0 {
		t.Fatalf("metrics stream: %d records, err %v", len(recs), err)
	}

	sockDir := filepath.Join(dir, "sock")
	if err := os.Mkdir(sockDir, 0o755); err != nil {
		t.Fatal(err)
	}
	bonsaiCmd(t, dir, "-model", "plummer", "-n", "1000", "-ranks", "2", "-steps", "1", "-q",
		"-transport", "unix", "-sock-dir", sockDir, "-max-restarts", "0",
		"-metrics", "u.jsonl", "-ckpt-dir", filepath.Join(dir, "ckpt-unix"))
	entries, err := os.ReadDir(sockDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "rank") {
			t.Errorf("traced unix run left %s in its socket directory", e.Name())
		}
	}
}

// freePortPair returns a port p such that p and p+1 are both free on
// 127.0.0.1 when it returns: the -port-base of a 2-rank tcp run.
func freePortPair(t *testing.T) int {
	t.Helper()
	for range 20 {
		ln0, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p := ln0.Addr().(*net.TCPAddr).Port
		ln1, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(p+1))
		ln0.Close()
		if err == nil {
			ln1.Close()
			return p
		}
	}
	t.Fatal("no two consecutive free ports on 127.0.0.1")
	return 0
}
