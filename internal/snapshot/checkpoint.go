// Distributed checkpoints: the restart side of the paper's §VI.C snapshots,
// adapted to the multi-process launcher. Every rank writes its own particle
// slice at a step barrier and rank 0 then commits the step with an atomic
// manifest write, so a checkpoint either exists completely or not at all —
// a rank killed mid-write can never leave a half-checkpoint that a restart
// would trust.
//
// Layout under a checkpoint directory:
//
//	step_00000042/rank_0003.snap   one snapshot file per rank (tmp+rename)
//	step_00000042/MANIFEST         "bonsai-ckpt <ranks> <step>\n", written last
package snapshot

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"bonsai/internal/body"
)

const manifestName = "MANIFEST"

func ckptStepDir(dir string, step int64) string {
	return filepath.Join(dir, fmt.Sprintf("step_%08d", step))
}

func ckptRankFile(dir string, step int64, rank int) string {
	return filepath.Join(ckptStepDir(dir, step), fmt.Sprintf("rank_%04d.snap", rank))
}

// WriteRankCkpt stores one rank's particle slice for a checkpoint at the
// given step. The file appears atomically (tmp + rename); the checkpoint as a
// whole becomes valid only once CommitCkpt writes the manifest.
func WriteRankCkpt(dir string, step int64, rank int, time float64, parts []body.Particle) error {
	sd := ckptStepDir(dir, step)
	if err := os.MkdirAll(sd, 0o755); err != nil {
		return err
	}
	final := ckptRankFile(dir, step, rank)
	tmp := final + ".tmp"
	if err := Save(tmp, Header{Time: time, Step: step}, parts); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, final)
}

// CommitCkpt marks the checkpoint at step complete. It verifies that every
// rank's file is present and readable-sized, then writes the manifest
// atomically. Call from rank 0 only, after a barrier has confirmed all ranks
// finished WriteRankCkpt.
func CommitCkpt(dir string, step int64, ranks int) error {
	for r := 0; r < ranks; r++ {
		fi, err := os.Stat(ckptRankFile(dir, step, r))
		if err != nil {
			return fmt.Errorf("snapshot: committing step %d: %w", step, err)
		}
		if fi.Size() == 0 {
			return fmt.Errorf("snapshot: committing step %d: rank %d file is empty", step, r)
		}
	}
	sd := ckptStepDir(dir, step)
	tmp := filepath.Join(sd, manifestName+".tmp")
	if err := os.WriteFile(tmp, []byte(fmt.Sprintf("bonsai-ckpt %d %d\n", ranks, step)), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(sd, manifestName))
}

// ErrManifest is returned (wrapped) by parseManifest for a manifest that is
// not exactly the one CommitCkpt writes for its step.
var ErrManifest = errors.New("snapshot: malformed checkpoint manifest")

// parseManifest returns the rank count a step directory's MANIFEST declares.
// It accepts only what CommitCkpt writes: "bonsai-ckpt <ranks> <step>\n"
// with canonical decimals, ranks ≥ 1 and the directory's own step.
func parseManifest(data []byte, step int64) (ranks int, err error) {
	f := strings.Fields(string(data))
	if len(f) != 3 || f[0] != "bonsai-ckpt" {
		return 0, fmt.Errorf("%w: %q", ErrManifest, data)
	}
	ranks, err1 := strconv.Atoi(f[1])
	s, err2 := strconv.ParseInt(f[2], 10, 64)
	switch {
	case err1 != nil || err2 != nil || fmt.Sprintf("bonsai-ckpt %d %d\n", ranks, s) != string(data):
		return 0, fmt.Errorf("%w: %q", ErrManifest, data)
	case ranks < 1:
		return 0, fmt.Errorf("%w: %d ranks", ErrManifest, ranks)
	case s != step:
		return 0, fmt.Errorf("%w: step %d in the directory of step %d", ErrManifest, s, step)
	}
	return ranks, nil
}

// committed reports whether the step directory name under dir holds a
// committed checkpoint — a well-formed manifest for its step — and the rank
// count it was written with.
func committed(dir, name string) (step int64, ranks int, ok bool) {
	if _, err := fmt.Sscanf(name, "step_%d", &step); err != nil {
		return 0, 0, false
	}
	data, err := os.ReadFile(filepath.Join(dir, name, manifestName))
	if err != nil {
		return step, 0, false // uncommitted (interrupted) checkpoint
	}
	ranks, err = parseManifest(data, step)
	return step, ranks, err == nil
}

// LatestCkpt scans a checkpoint directory and returns the highest committed
// step and its rank count. ok is false when no committed checkpoint exists
// (including when the directory is absent); a step whose manifest is missing
// or malformed is not committed.
func LatestCkpt(dir string) (step int64, ranks int, ok bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, false
	}
	best := int64(-1)
	bestRanks := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if s, r, ok := committed(dir, e.Name()); ok && s > best {
			best, bestRanks = s, r
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bestRanks, true
}

// LoadRankCkpt reads one rank's slice from a committed checkpoint.
func LoadRankCkpt(dir string, step int64, rank int) (Header, []body.Particle, error) {
	return Load(ckptRankFile(dir, step, rank))
}

// PruneCkpts removes all but the newest `keep` committed checkpoints (and any
// uncommitted step directories older than the newest committed one), bounding
// the disk a long run spends on restart state.
func PruneCkpts(dir string, keep int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var done []int64
	var all []int64
	for _, e := range entries {
		var s int64
		if !e.IsDir() {
			continue
		}
		if _, err := fmt.Sscanf(e.Name(), "step_%d", &s); err != nil {
			continue
		}
		all = append(all, s)
		if _, _, ok := committed(dir, e.Name()); ok {
			done = append(done, s)
		}
	}
	if len(done) == 0 {
		return nil
	}
	if keep < 1 {
		keep = 1
	}
	sort.Slice(done, func(i, j int) bool { return done[i] > done[j] })
	newest := done[0]
	cut := int64(-1)
	if keep < len(done) {
		cut = done[keep-1]
	}
	var firstErr error
	for _, s := range all {
		drop := false
		if keep < len(done) && s < cut && contains(done, s) {
			drop = true // committed but older than the keep window
		}
		if s < newest && !contains(done, s) {
			drop = true // leftovers of an interrupted checkpoint, or a malformed manifest
		}
		if drop {
			if err := os.RemoveAll(ckptStepDir(dir, s)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

func contains(xs []int64, v int64) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
