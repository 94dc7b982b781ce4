package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"bonsai"
)

// TestMain lets the test binary stand in for the snapinfo command: with
// SNAPINFO_TEST_AS_CMD set it runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("SNAPINFO_TEST_AS_CMD") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestSnapinfoSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mw.snap")
	if err := bonsai.SaveSnapshot(path, 0, 0, bonsai.NewMilkyWay(2000, 42)); err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, path)
	cmd.Env = append(os.Environ(), "SNAPINFO_TEST_AS_CMD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("snapinfo: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "step 0, 2000 particles") {
		t.Errorf("no header line with the particle count:\n%s", out)
	}
}
