package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the mkgalaxy command: with
// MKGALAXY_TEST_AS_CMD set it runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("MKGALAXY_TEST_AS_CMD") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// mkgalaxy runs the command with the given flags and returns its combined
// output.
func mkgalaxy(t *testing.T, args ...string) (string, error) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), "MKGALAXY_TEST_AS_CMD=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestMkgalaxySmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mw.snap")
	out, err := mkgalaxy(t, "-n", "2000", "-o", path)
	if err != nil {
		t.Fatalf("mkgalaxy: %v\n%s", err, out)
	}
	if !strings.Contains(out, "wrote "+path) {
		t.Errorf("no closing line naming the snapshot:\n%s", out)
	}
}

// TestSizeFlagRejected: a particle count below 1 is a usage error, exit
// status 2 with the message, and no snapshot is written (-n -5 used to panic
// in makeslice, -n 0 to index an empty realization).
func TestSizeFlagRejected(t *testing.T) {
	for _, n := range []string{"-5", "0"} {
		t.Run(n, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "g.snap")
			out, err := mkgalaxy(t, "-n", n, "-o", path)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
				!strings.Contains(out, "need at least 1 particle") || strings.Contains(out, "panic:") {
				t.Errorf("mkgalaxy -n %s: %v, want a usage error\n%s", n, err, out)
			}
			if _, err := os.Stat(path); err == nil {
				t.Errorf("mkgalaxy -n %s wrote %s", n, path)
			}
		})
	}
}
