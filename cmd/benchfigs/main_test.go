package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEverySectionSmoke runs every section at reduced size into a temporary
// directory: each must print its title and the tables it owns, and each PGM
// it writes must be a plain-text greymap. Fig. 1 must print all five of its
// bars (a bar whose device run errors prints the error instead of its line),
// and the ablations all four of their sweeps.
func TestEverySectionSmoke(t *testing.T) {
	dir := t.TempDir()
	runs := scalingRuns{}
	out := captureStdout(t, func() {
		printTable1()
		printFlops()
		printFig1()
		printFig2(dir)
		printFig4Measured(runs, 500, 4)
		printFig4Model()
		printTable2Measured(runs, 500, 4)
		printTable2Model()
		printTimeToSolution()
		printPeak()
		printAblations(3000)
		runFig3(dir, 2000, 4)
	})
	for _, want := range []string{
		"TABLE I — Hardware",
		"§VI.A — Operation counting conventions",
		"FIG. 1 — Force kernel performance",
		"FIG. 2 — Peano-Hilbert SFC domain decomposition",
		"LET exchange this step:",
		"domain compactness",
		"Hilbert-key span of each domain",
		"FIG. 4 (measured) — weak scaling",
		"comm/rank MB",
		"communication surface scaling (4 ranks",
		"FIG. 4 (model)",
		"TABLE II (measured) — phase breakdown",
		"strong scaling (2000 particles in total)",
		"TABLE II (model)",
		"§VI.C — Time-to-solution",
		"§VI.D — Peak performance",
		"ABLATIONS (DESIGN.md §5)",
		"#1 opening angle",
		"#2 NLEAF",
		"#3 group size NCRIT",
		"#4 boundary-tree depth",
		"FIG. 3 — Milky Way structure run (N=2000, 4 steps",
		"bar phase",
		"energy E=",
		"solar neighbourhood",
		"§II heating vs resolution",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}
	for _, bar := range []string{
		"tree  C2075/original", "tree  K20X/original", "tree  K20X/tuned", "direct C2075", "direct K20X",
	} {
		if !strings.Contains(out, "\n"+bar+" ") {
			t.Errorf("Fig. 1 lacks the %q bar", bar)
		}
	}
	// Fig. 2 draws a disk: every one of its domains owns part of the map.
	if strings.Contains(out, "no particles in the map") {
		t.Error("Fig. 2 has a domain with no particles inside the map")
	}
	for _, name := range []string{"fig2_domains.pgm", "fig3_density_initial.pgm", "fig3_density_final.pgm"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		if !bytes.HasPrefix(b, []byte("P2")) {
			t.Errorf("%s does not start with the P2 magic: %q", name, b[:min(len(b), 8)])
		}
	}
}

// captureStdout returns what fn prints to os.Stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	fn()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
