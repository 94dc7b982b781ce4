package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the example: with
// EXAMPLE_TEST_AS_CMD set it runs main() instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("EXAMPLE_TEST_AS_CMD") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestBlackholeSmoke runs the example at its default size.
func TestBlackholeSmoke(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), "EXAMPLE_TEST_AS_CMD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "relative energy drift of the coupled system:") {
		t.Errorf("no closing line in the output:\n%s", out)
	}
}
