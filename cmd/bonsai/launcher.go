package main

import (
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// launchConfig is everything the launcher and its forked workers must agree
// on besides the simulation itself (simFlags): the transport topology, the
// checkpoint location and the observability outputs. Workers re-derive the
// same rank addresses from the same flags.
type launchConfig struct {
	transport   string // "unix" or "tcp"
	ranks       int
	ckptEvery   int
	ckptDir     string
	portBase    int
	maxRestarts int
	sockDir     string
	obs         obsFlags
}

// rankAddrs returns the listen address of every rank: deterministic, so the
// launcher and each worker compute identical tables from the shared flags.
func (lc *launchConfig) rankAddrs() []string {
	addrs := make([]string, lc.ranks)
	for r := range addrs {
		switch lc.transport {
		case "tcp":
			addrs[r] = fmt.Sprintf("127.0.0.1:%d", lc.portBase+r)
		case "unix":
			addrs[r] = filepath.Join(lc.sockDir, fmt.Sprintf("rank%d.sock", r))
		}
	}
	return addrs
}

// runLauncher forks one worker process per rank, re-execing this binary with
// the original flags plus -worker-rank, and supervises the team: if any
// worker dies (crash, SIGKILL), the whole team is killed and respawned, and
// the workers restore themselves from the newest committed checkpoint. The
// team is restarted at most maxRestarts times. Without -ckpt-dir the
// checkpoints go to a fresh temp directory, removed once the team finishes
// cleanly and kept when the restart budget is spent.
func runLauncher(lc launchConfig) {
	tmpCkpt := lc.ckptDir == ""
	if tmpCkpt {
		dir, err := os.MkdirTemp("", "bonsai-ckpt")
		if err != nil {
			log.Fatal(err)
		}
		lc.ckptDir = dir
		fmt.Printf("checkpoints -> %s\n", dir)
	}
	if lc.transport == "unix" && lc.sockDir == "" {
		dir, err := os.MkdirTemp("", "bonsai-sock")
		if err != nil {
			log.Fatal(err)
		}
		lc.sockDir = dir
		defer os.RemoveAll(dir)
	}
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}

	for attempt := 0; ; attempt++ {
		ok, failure := runTeam(self, lc)
		if ok {
			if tmpCkpt {
				os.RemoveAll(lc.ckptDir)
			}
			return
		}
		if attempt >= lc.maxRestarts {
			log.Fatalf("worker team failed (%s) and restart budget (%d) is spent; checkpoints kept in %s",
				failure, lc.maxRestarts, lc.ckptDir)
		}
		fmt.Printf("worker team failed (%s); restarting from the last checkpoint (attempt %d/%d)\n",
			failure, attempt+1, lc.maxRestarts)
	}
}

// runTeam starts all workers once and waits. Returns ok when every worker
// exits cleanly; otherwise kills the survivors and reports the first failure.
func runTeam(self string, lc launchConfig) (ok bool, failure string) {
	cmds := make([]*exec.Cmd, lc.ranks)
	type exitMsg struct {
		rank int
		err  error
	}
	exits := make(chan exitMsg, lc.ranks)
	for r := 0; r < lc.ranks; r++ {
		// The worker re-parses the same command line; later duplicates win in
		// the flag package, so appending the internal flags is enough.
		args := append(append([]string(nil), os.Args[1:]...),
			"-worker-rank", strconv.Itoa(r),
			"-ckpt-dir", lc.ckptDir,
			"-sock-dir", lc.sockDir,
		)
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		if r == 0 {
			cmd.Stdout = os.Stdout // rank 0 narrates the run and writes its telemetry
		}
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:r] {
				c.Process.Kill()
				c.Wait()
			}
			log.Fatalf("starting worker %d: %v", r, err)
		}
		cmds[r] = cmd
		go func(r int, cmd *exec.Cmd) {
			exits <- exitMsg{rank: r, err: cmd.Wait()}
		}(r, cmd)
	}

	clean := 0
	for clean < lc.ranks {
		m := <-exits
		if m.err == nil {
			clean++
			continue
		}
		// One worker died: the step can never complete, so kill the rest and
		// let the caller respawn the team from the last checkpoint.
		for _, c := range cmds {
			if c.Process != nil {
				c.Process.Kill()
			}
		}
		for drained := clean + 1; drained < lc.ranks; drained++ {
			<-exits
		}
		return false, fmt.Sprintf("rank %d: %v", m.rank, m.err)
	}
	return true, ""
}
