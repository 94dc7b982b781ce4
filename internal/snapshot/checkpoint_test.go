package snapshot

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/vec"
)

func ckptParts(rank int) []body.Particle {
	return []body.Particle{
		{Pos: vec.V3{X: float64(rank)}, Mass: 1, ID: int64(rank * 10)},
		{Pos: vec.V3{Y: float64(rank)}, Mass: 2, ID: int64(rank*10 + 1)},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const ranks = 3
	for r := 0; r < ranks; r++ {
		if err := WriteRankCkpt(dir, 7, r, 0.5, ckptParts(r)); err != nil {
			t.Fatal(err)
		}
	}
	// Not committed yet: invisible to restart.
	if _, _, ok := LatestCkpt(dir); ok {
		t.Fatal("uncommitted checkpoint reported as latest")
	}
	if err := CommitCkpt(dir, 7, ranks); err != nil {
		t.Fatal(err)
	}
	step, nr, ok := LatestCkpt(dir)
	if !ok || step != 7 || nr != ranks {
		t.Fatalf("LatestCkpt = (%d, %d, %v), want (7, %d, true)", step, nr, ok, ranks)
	}
	for r := 0; r < ranks; r++ {
		h, parts, err := LoadRankCkpt(dir, 7, r)
		if err != nil {
			t.Fatal(err)
		}
		if h.Step != 7 || h.Time != 0.5 {
			t.Errorf("rank %d header = %+v", r, h)
		}
		want := ckptParts(r)
		if len(parts) != len(want) || parts[0].ID != want[0].ID || parts[1].Pos != want[1].Pos {
			t.Errorf("rank %d parts = %+v", r, parts)
		}
	}
}

func TestCommitCkptRefusesMissingRank(t *testing.T) {
	dir := t.TempDir()
	if err := WriteRankCkpt(dir, 3, 0, 0, ckptParts(0)); err != nil {
		t.Fatal(err)
	}
	if err := CommitCkpt(dir, 3, 2); err == nil {
		t.Fatal("CommitCkpt committed with rank 1 missing")
	}
}

func TestLatestCkptPicksHighestCommitted(t *testing.T) {
	dir := t.TempDir()
	for _, step := range []int64{2, 5, 9} {
		for r := 0; r < 2; r++ {
			if err := WriteRankCkpt(dir, step, r, float64(step), ckptParts(r)); err != nil {
				t.Fatal(err)
			}
		}
		if step != 9 { // leave the newest uncommitted, as a kill mid-commit would
			if err := CommitCkpt(dir, step, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	step, _, ok := LatestCkpt(dir)
	if !ok || step != 5 {
		t.Fatalf("LatestCkpt = (%d, %v), want (5, true)", step, ok)
	}
}

func TestPruneCkpts(t *testing.T) {
	dir := t.TempDir()
	for _, step := range []int64{1, 2, 3, 4} {
		for r := 0; r < 2; r++ {
			if err := WriteRankCkpt(dir, step, r, 0, ckptParts(r)); err != nil {
				t.Fatal(err)
			}
		}
		if step != 3 { // an interrupted, uncommitted checkpoint in the middle
			if err := CommitCkpt(dir, step, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := PruneCkpts(dir, 2); err != nil {
		t.Fatal(err)
	}
	// Kept: committed steps 4 and 2. Dropped: committed 1, uncommitted 3.
	for _, want := range []struct {
		step  int64
		there bool
	}{{1, false}, {2, true}, {3, false}, {4, true}} {
		_, err := os.Stat(filepath.Join(dir, ckptStepDir("", want.step)))
		if got := err == nil; got != want.there {
			t.Errorf("step %d present = %v, want %v", want.step, got, want.there)
		}
	}
	step, _, ok := LatestCkpt(dir)
	if !ok || step != 4 {
		t.Fatalf("after prune LatestCkpt = (%d, %v), want (4, true)", step, ok)
	}
}

// TestParseManifest: a manifest commits a step only in exactly the form
// CommitCkpt writes it.
func TestParseManifest(t *testing.T) {
	for _, c := range []struct {
		name  string
		data  string
		ranks int // 0: rejected
	}{
		{"written by CommitCkpt", "bonsai-ckpt 4 12\n", 4},
		{"one rank", "bonsai-ckpt 1 12\n", 1},
		{"trailing bytes", "bonsai-ckpt 4 12\ngarbage", 0},
		{"no newline", "bonsai-ckpt 4 12", 0},
		{"two newlines", "bonsai-ckpt 4 12\n\n", 0},
		{"zero ranks", "bonsai-ckpt 0 12\n", 0},
		{"negative ranks", "bonsai-ckpt -3 12\n", 0},
		{"other step", "bonsai-ckpt 4 11\n", 0},
		{"signed ranks", "bonsai-ckpt +4 12\n", 0},
		{"padded ranks", "bonsai-ckpt 04 12\n", 0},
		{"double space", "bonsai-ckpt  4 12\n", 0},
		{"other magic", "bonsai-ckpu 4 12\n", 0},
		{"rank overflow", "bonsai-ckpt 99999999999999999999 12\n", 0},
		{"empty", "", 0},
	} {
		ranks, err := parseManifest([]byte(c.data), 12)
		if c.ranks == 0 && !errors.Is(err, ErrManifest) || c.ranks != 0 && (err != nil || ranks != c.ranks) {
			t.Errorf("%s: %q = (%d, %v), want %d ranks", c.name, c.data, ranks, err, c.ranks)
		}
	}
}

// TestLatestCkptSkipsMalformedManifest: a newer step whose manifest declares
// 0 or -3 ranks, or carries trailing bytes, is not committed — the newest
// well-formed one is returned, and pruning treats the bad ones as leftovers.
func TestLatestCkptSkipsMalformedManifest(t *testing.T) {
	dir := t.TempDir()
	for _, step := range []int64{2, 5, 6, 7} {
		for r := 0; r < 2; r++ {
			if err := WriteRankCkpt(dir, step, r, float64(step), ckptParts(r)); err != nil {
				t.Fatal(err)
			}
		}
		if err := CommitCkpt(dir, step, 2); err != nil {
			t.Fatal(err)
		}
	}
	for step, bad := range map[int64]string{5: "bonsai-ckpt 0 5\n", 6: "bonsai-ckpt -3 6\n", 7: "bonsai-ckpt 2 7\nx"} {
		if err := os.WriteFile(filepath.Join(ckptStepDir(dir, step), manifestName), []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if step, ranks, ok := LatestCkpt(dir); !ok || step != 2 || ranks != 2 {
		t.Fatalf("LatestCkpt = (%d, %d, %v), want (2, 2, true)", step, ranks, ok)
	}
	if err := PruneCkpts(dir, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckptStepDir(dir, 2)); err != nil {
		t.Errorf("the one committed checkpoint was pruned: %v", err)
	}
}

// FuzzManifest: any bytes parse to an error or to a rank count ≥ 1 whose
// manifest, written the way CommitCkpt writes it, is those bytes exactly.
func FuzzManifest(f *testing.F) {
	for _, s := range []string{"bonsai-ckpt 4 12\n", "bonsai-ckpt 0 12\n", "bonsai-ckpt -3 12\n", "bonsai-ckpt 4 12\nx", "bonsai-ckpt 4 11\n", ""} {
		f.Add([]byte(s), int64(12))
	}
	f.Fuzz(func(t *testing.T, data []byte, step int64) {
		ranks, err := parseManifest(data, step)
		if err != nil {
			if !errors.Is(err, ErrManifest) {
				t.Fatalf("unnamed error %v", err)
			}
			return
		}
		if want := fmt.Sprintf("bonsai-ckpt %d %d\n", ranks, step); ranks < 1 || string(data) != want {
			t.Fatalf("%q accepted as %d ranks at step %d", data, ranks, step)
		}
	})
}
