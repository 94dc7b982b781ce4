package octree

import (
	"fmt"
	"testing"

	"bonsai/internal/keys"
	"bonsai/internal/psort"
	"bonsai/internal/vec"
)

// sortedCloud Morton-sorts a particle cloud, returning exactly the inputs the
// sim layer hands to the tree builder.
func sortedCloud(n int, seed int64, clustered bool) ([]keys.Key, []vec.V3, []float64, keys.Grid) {
	var pos []vec.V3
	var mass []float64
	if clustered {
		pos, mass = clusteredCloud(n, seed)
	} else {
		pos, mass = randomCloud(n, seed)
	}
	bb := vec.EmptyBox()
	for _, p := range pos {
		bb = bb.Extend(p)
	}
	grid := keys.NewGrid(bb)
	kv := make([]psort.KV, n)
	for i, p := range pos {
		kv[i] = psort.KV{Key: uint64(grid.MortonOf(p)), Idx: int32(i)}
	}
	psort.Sort(kv, 1)
	ks := make([]keys.Key, n)
	sp := make([]vec.V3, n)
	sm := make([]float64, n)
	for i, e := range kv {
		ks[i] = keys.Key(e.Key)
		sp[i] = pos[e.Idx]
		sm[i] = mass[e.Idx]
	}
	return ks, sp, sm, grid
}

// requireSameCells deep-compares two cell slices bitwise (Cell is comparable:
// indices, geometry, multipoles and Delta all participate).
func requireSameCells(t *testing.T, want, got []Cell, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: cell count %d != serial %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: cell %d differs:\nserial   %+v\nparallel %+v", label, i, want[i], got[i])
		}
	}
}

// TestParallelBuildBitwiseIdentical: for any worker count the scratch
// pipeline (build, properties, groups) produces a byte-for-byte copy of the
// serial result — same cell layout, same child indices, bitwise-equal
// multipoles and Deltas, identical groups.
func TestParallelBuildBitwiseIdentical(t *testing.T) {
	cases := []struct {
		name      string
		n         int
		clustered bool
	}{
		{"random50k", 50_000, false},
		{"clustered50k", 50_000, true},
		{"belowCutoff", 5_000, false}, // below parallelBuildMin: no partition, serial sweep
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ks, pos, mass, grid := sortedCloud(tc.n, 42, tc.clustered)

			ref := BuildStructure(ks, pos, mass, grid, 16)
			ref.ComputeProperties()
			refGroups := ref.MakeGroups(64)

			for _, workers := range []int{2, 3, 8} {
				var sc BuildScratch
				tr := BuildStructureScratch(&sc, ks, pos, mass, grid, 16, workers)
				tr.ComputePropertiesParallel(workers)
				requireSameCells(t, ref.Cells, tr.Cells, tc.name)

				groups := tr.MakeGroupsScratch(64, workers, nil)
				if len(groups) != len(refGroups) {
					t.Fatalf("w=%d: %d groups != serial %d", workers, len(groups), len(refGroups))
				}
				for g := range groups {
					if groups[g] != refGroups[g] {
						t.Fatalf("w=%d: group %d differs: %+v vs %+v", workers, g, groups[g], refGroups[g])
					}
				}
			}
		})
	}
}

// TestBuildScratchReuseAcrossInputs rebuilds through one BuildScratch with
// inputs of different sizes and shapes; every build must match a fresh serial
// build (stale cells or spans would corrupt the layout or the moments).
func TestBuildScratchReuseAcrossInputs(t *testing.T) {
	var sc BuildScratch
	for i, tc := range []struct {
		n         int
		clustered bool
	}{
		{60_000, false}, {20_000, true}, {40_000, false}, {3_000, false}, {50_000, true},
	} {
		ks, pos, mass, grid := sortedCloud(tc.n, int64(100+i), tc.clustered)
		ref := BuildStructure(ks, pos, mass, grid, 16)
		ref.ComputeProperties()

		tr := BuildStructureScratch(&sc, ks, pos, mass, grid, 16, 4)
		tr.ComputePropertiesParallel(4)
		requireSameCells(t, ref.Cells, tr.Cells, "reuse")
	}
}

// TestPropertiesPartition checks the partition BuildStructureScratch derives
// from the finished tree, which is all that makes the parallel moments sweep
// safe: spans are disjoint whole subtrees, spans and top cells together cover
// Cells exactly once, every child of a top cell is a later top cell or a span
// root, and the sweep over it is bitwise the serial one.
func TestPropertiesPartition(t *testing.T) {
	check := func(t *testing.T, ks []keys.Key, pos []vec.V3, mass []float64, grid keys.Grid) {
		for _, nleaf := range []int{2, 16, 100} {
			ref := BuildStructure(ks, pos, mass, grid, nleaf)
			ref.ComputeProperties()
			var sc BuildScratch
			for _, workers := range []int{1, 2, 8} {
				tr := BuildStructureScratch(&sc, ks, pos, mass, grid, nleaf, workers)
				if want := workers > 1 && len(pos) >= parallelBuildMin; (len(tr.topCells) > 0) != want {
					t.Fatalf("nleaf=%d w=%d: %d top cells, partition wanted: %v", nleaf, workers, len(tr.topCells), want)
				}
				if len(tr.topCells) > 0 {
					requirePartition(t, tr)
				}
				tr.ComputePropertiesParallel(workers)
				requireSameCells(t, ref.Cells, tr.Cells, "partition")
			}
		}
	}
	for _, n := range []int{1, 17, 5_000, 40_000, 200_000} {
		if raceEnabled && n > 40_000 {
			continue // 40k already sweeps spans concurrently; 200k costs 15 s under -race
		}
		for _, clustered := range []bool{false, true} {
			t.Run(fmt.Sprintf("n%d/clustered=%v", n, clustered), func(t *testing.T) {
				ks, pos, mass, grid := sortedCloud(n, int64(n), clustered)
				check(t, ks, pos, mass, grid)
			})
		}
	}
	t.Run("allKeysEqual", func(t *testing.T) {
		// One key repeated: a single-child chain of top cells ending in one
		// depth-limit leaf far above the cutoff, and no span at all.
		ks, pos, mass, grid := equalKeysCloud(20_000)
		check(t, ks, pos, mass, grid)
	})
}

// equalKeysCloud is n particles at one point: every key equal.
func equalKeysCloud(n int) ([]keys.Key, []vec.V3, []float64, keys.Grid) {
	ks, pos, mass := make([]keys.Key, n), make([]vec.V3, n), make([]float64, n)
	grid := keys.NewGrid(vec.Box{Max: vec.V3{X: 1, Y: 1, Z: 1}})
	for i := range pos {
		pos[i] = vec.V3{X: 0.5, Y: 0.5, Z: 0.5}
		ks[i] = grid.MortonOf(pos[i])
		mass[i] = 1 / float64(n)
	}
	return ks, pos, mass, grid
}

// requirePartition holds tr's topCells/subSpans to the invariants
// ComputePropertiesParallel relies on.
func requirePartition(t *testing.T, tr *Tree) {
	t.Helper()
	const top, none = -1, -2
	kids := childTable(tr)
	owner := make([]int, len(tr.Cells)) // span index, top or none
	for i := range owner {
		owner[i] = none
	}
	for k, s := range tr.subSpans {
		for i := s.base; i < s.base+s.n; i++ {
			if owner[i] != none {
				t.Fatalf("cell %d is in span %d and in %d", i, k, owner[i])
			}
			owner[i] = k
		}
	}
	for k, i := range tr.topCells {
		if owner[i] != none {
			t.Fatalf("top cell %d is also owned by %d", i, owner[i])
		}
		if k > 0 && i <= tr.topCells[k-1] {
			t.Fatalf("top cells out of order at %d", k)
		}
		owner[i] = top
	}
	for i, o := range owner {
		switch {
		case o == none:
			t.Fatalf("cell %d is in no span and is not a top cell", i)
		case o == top:
			for _, ch := range kids[i] {
				if ch == noCell {
					continue
				}
				later := owner[ch] == top && ch > int32(i)
				spanRoot := owner[ch] >= 0 && tr.subSpans[owner[ch]].base == ch
				if !later && !spanRoot {
					t.Fatalf("child %d of top cell %d is neither a later top cell nor a span root", ch, i)
				}
			}
		default:
			for _, ch := range kids[i] {
				if ch != noCell && owner[ch] != o {
					t.Fatalf("child %d of cell %d leaves span %d", ch, i, o)
				}
			}
		}
	}
}

// TestGroupsOfScratchMatchesGroupsOf checks the fixed-run variant incl. slice
// reuse across calls of different lengths.
func TestGroupsOfScratchMatchesGroupsOf(t *testing.T) {
	var dst []Group
	for _, n := range []int{10, 1000, 33_000} {
		pos, _ := randomCloud(n, 7)
		want := GroupsOf(pos, 64)
		dst = GroupsOfScratch(pos, 64, 4, dst)
		if len(want) != len(dst) {
			t.Fatalf("n=%d: %d groups != %d", n, len(dst), len(want))
		}
		for g := range want {
			if want[g] != dst[g] {
				t.Fatalf("n=%d: group %d differs", n, g)
			}
		}
	}
}

// TestTreePipelineAllocFree: with warm scratch, the serial (workers=1) tree
// pipeline — build, properties, groups — performs zero allocations per step,
// and the parallel pipeline's allocations are a small constant (goroutine
// bookkeeping), not O(N).
func TestTreePipelineAllocFree(t *testing.T) {
	ks, pos, mass, grid := sortedCloud(50_000, 9, false)

	var sc BuildScratch
	var groups []Group
	run := func(workers int) {
		tr := BuildStructureScratch(&sc, ks, pos, mass, grid, 16, workers)
		tr.ComputePropertiesParallel(workers)
		groups = tr.MakeGroupsScratch(64, workers, groups)
	}
	run(1) // warm the buffers
	if a := testing.AllocsPerRun(5, func() { run(1) }); a != 0 {
		t.Errorf("serial pipeline allocated %v per step, want 0", a)
	}

	if raceEnabled {
		return // race-detector bookkeeping inflates per-goroutine allocs
	}
	run(8) // warm the parallel-only buffers (top cells, spans)
	if a := testing.AllocsPerRun(5, func() { run(8) }); a > 64 {
		t.Errorf("parallel pipeline allocated %v per step, want small constant", a)
	}
}
