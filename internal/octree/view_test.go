package octree

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bonsai/internal/grav"
	"bonsai/internal/keys"
	"bonsai/internal/vec"
)

// stackCollect is the traversal the walks ran before the preorder view: an
// explicit stack over Cells, the per-visit MACOpen test, children (kids is the
// tree's childTable) pushed in octant order. It is kept as the oracle the view
// walk is compared against.
func stackCollect(t *Tree, kids [][8]int32, groupBox vec.Box, theta float64) (cells, parts []int32) {
	if len(t.Cells) == 0 {
		return nil, nil
	}
	stack := []int32{0}
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := &t.Cells[idx]
		if c.MP.M == 0 {
			continue
		}
		if !MACOpen(groupBox, c, theta) {
			cells = append(cells, idx)
			continue
		}
		if c.Leaf {
			for i := c.Start; i < c.Start+c.N; i++ {
				parts = append(parts, i)
			}
			continue
		}
		for _, ch := range kids[idx] {
			if ch != noCell {
				stack = append(stack, ch)
			}
		}
	}
	return cells, parts
}

// requireViewMatchesStack asserts, for every group, that Collect yields the
// same set of cells and particles as the stack oracle, in preorder, and that
// Walk's interaction counts are the ones the oracle's lists imply.
func requireViewMatchesStack(t *testing.T, tr *Tree, theta float64, label string) {
	t.Helper()
	groups := tr.MakeGroups(32)
	kids := childTable(tr)
	var lists WalkLists
	var want grav.Stats
	for gi, g := range groups {
		wc, wp := stackCollect(tr, kids, g.Box, theta)
		tr.Collect(g.Box, theta, &lists)
		if !slices.IsSorted(lists.CellIdx) || !slices.IsSorted(lists.PartIdx) {
			t.Fatalf("%s: group %d: lists not in preorder", label, gi)
		}
		slices.Sort(wc)
		slices.Sort(wp)
		if !slices.Equal(wc, lists.CellIdx) {
			t.Fatalf("%s: group %d: cells differ: view %d, stack %d", label, gi, len(lists.CellIdx), len(wc))
		}
		if !slices.Equal(wp, lists.PartIdx) {
			t.Fatalf("%s: group %d: particles differ: view %d, stack %d", label, gi, len(lists.PartIdx), len(wp))
		}
		want.PC += uint64(len(wc)) * uint64(g.N)
		want.PP += uint64(len(wp)) * uint64(g.N)
	}
	var got grav.Stats
	acc := make([]vec.V3, len(tr.Pos))
	pot := make([]float64, len(tr.Pos))
	tr.Walk(groups, tr.Pos, theta, 1e-4, acc, pot, 3, &got)
	if got != want {
		t.Fatalf("%s: walk stats %+v, stack oracle %+v", label, got, want)
	}
}

func TestViewWalkMatchesStackCollect(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			pos, mass := randomCloud(3000+500*int(seed), seed)
			tr, _ := BuildFrom(pos, mass, 8, 2)
			requireViewMatchesStack(t, tr, 0.3+0.15*float64(seed), "random")
		}
	})
	t.Run("clustered", func(t *testing.T) {
		pos, mass := clusteredCloud(6000, 5)
		tr, _ := BuildFrom(pos, mass, 16, 2)
		requireViewMatchesStack(t, tr, 0.4, "clustered")
	})
	t.Run("zeroMass", func(t *testing.T) {
		// Whole octants of massless particles make massless leaves and inner
		// cells (skipped with their subtrees); scattered ones sit in massive
		// leaves and stay in the particle lists.
		pos, mass := randomCloud(4000, 6)
		rng := rand.New(rand.NewSource(6))
		for i, p := range pos {
			if (p.X < 0.5 && p.Y < 0.5) || rng.Intn(10) == 0 {
				mass[i] = 0
			}
		}
		tr, _ := BuildFrom(pos, mass, 8, 1)
		massless := 0
		for i := range tr.Cells {
			if tr.Cells[i].MP.M == 0 && !tr.Cells[i].Leaf {
				massless++
			}
		}
		if massless == 0 {
			t.Fatal("no massless inner cell in the test tree")
		}
		requireViewMatchesStack(t, tr, 0.5, "zeroMass")
	})
	t.Run("singleLeaf", func(t *testing.T) {
		pos, mass := randomCloud(5, 7)
		tr, _ := BuildFrom(pos, mass, 16, 1)
		if len(tr.Cells) != 1 {
			t.Fatalf("want a single-leaf tree, have %d cells", len(tr.Cells))
		}
		requireViewMatchesStack(t, tr, 0.4, "singleLeaf")
	})
	t.Run("empty", func(t *testing.T) {
		tr, _ := BuildFrom(nil, nil, 16, 1)
		var lists WalkLists
		tr.Collect(vec.Box{Max: vec.V3{X: 1, Y: 1, Z: 1}}, 0.4, &lists)
		if len(lists.CellIdx)+len(lists.PartIdx) != 0 {
			t.Fatal("empty tree produced an interaction list")
		}
		tr.Walk([]Group{{N: 0}}, nil, 0.4, 1e-4, nil, nil, 1, nil)
	})
	t.Run("deepLeaves", func(t *testing.T) {
		// Coincident particles cannot be split: their leaves sit at
		// keys.Bits and hold more than NLeaf particles.
		pos, mass := randomCloud(600, 8)
		for i := 0; i < 200; i++ {
			pos[i] = vec.V3{X: 0.3, Y: 0.3, Z: 0.3}
		}
		tr, _ := BuildFrom(pos, mass, 4, 1)
		if tr.Depth() != keys.Bits+1 {
			t.Fatalf("depth %d, want leaves at level %d", tr.Depth(), keys.Bits)
		}
		requireViewMatchesStack(t, tr, 0.4, "deepLeaves")
	})
	t.Run("driftedRefresh", func(t *testing.T) {
		pos, mass := clusteredCloud(4000, 9)
		tr, _ := BuildFrom(pos, mass, 16, 2)
		requireViewMatchesStack(t, tr, 0.4, "before drift")
		rng := rand.New(rand.NewSource(9))
		for i := range tr.Pos {
			tr.Pos[i] = tr.Pos[i].Add(vec.V3{X: 1e-3 * rng.NormFloat64(), Y: 1e-3 * rng.NormFloat64(), Z: 1e-3 * rng.NormFloat64()})
		}
		tr.RefreshProperties(2)
		requireViewMatchesStack(t, tr, 0.4, "after refresh")
	})
}

// TestViewFollowsEveryPropertiesPath walks trees whose properties came from
// each producer — serial and parallel sweeps, the scratch builder reusing one
// view buffer across inputs, BuildStructure + ComputeProperties —
// and a second θ on a tree already viewed for a first.
func TestViewFollowsEveryPropertiesPath(t *testing.T) {
	var sc BuildScratch
	for seed := int64(1); seed <= 3; seed++ {
		ks, pos, mass, grid := sortedCloud(20000+3000*int(seed), seed, seed%2 == 0)
		tr := BuildStructureScratch(&sc, ks, pos, mass, grid, 16, 4)
		tr.ComputePropertiesParallel(4)
		requireViewMatchesStack(t, tr, 0.4, "scratch parallel")
		tr.ComputeProperties()
		requireViewMatchesStack(t, tr, 0.6, "scratch serial, second theta")
	}
	ks, pos, mass, grid := sortedCloud(5000, 5, false)
	tr := BuildStructure(ks, pos, mass, grid, 16)
	tr.ComputeProperties()
	requireViewMatchesStack(t, tr, 0.4, "BuildStructure+ComputeProperties")
}

func TestWarmWalkAllocFree(t *testing.T) {
	pos, mass := clusteredCloud(4000, 10)
	tr, _ := BuildFrom(pos, mass, 16, 1)
	groups := tr.MakeGroups(64)
	acc := make([]vec.V3, len(tr.Pos))
	pot := make([]float64, len(tr.Pos))
	var st grav.Stats
	walk := func() { tr.Walk(groups, tr.Pos, 0.4, 1e-4, acc, pot, 1, &st) }
	walk()
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	if n := testing.AllocsPerRun(5, walk); n != 0 {
		t.Fatalf("warm Walk at workers=1 allocated %v times per run", n)
	}
	// A pass over several trees: their views are resolved into the pooled
	// lead walker, and the merged list grows in the same gather buffers.
	srcs := []Source{tr}
	for seed := int64(11); seed <= 12; seed++ {
		p, m := randomCloud(1500, seed)
		other, _ := BuildFrom(p, m, 16, 1)
		srcs = append(srcs, other)
	}
	pass := func() { WalkSources(srcs, groups, tr.Pos, 0.4, 1e-4, acc, pot, 1, &st, nil) }
	pass()
	if n := testing.AllocsPerRun(5, pass); n != 0 {
		t.Fatalf("warm WalkSources over %d trees at workers=1 allocated %v times per run", len(srcs), n)
	}
	var lists WalkLists
	g := groups[len(groups)/2]
	collect := func() { tr.Collect(g.Box, 0.4, &lists) }
	collect()
	if n := testing.AllocsPerRun(5, collect); n != 0 {
		t.Fatalf("warm Collect allocated %v times per run", n)
	}
}

// TestConcurrentWalksShareOneView walks one tree from several goroutines at
// once, the first of them building the view (run under -race in make race).
func TestConcurrentWalksShareOneView(t *testing.T) {
	pos, mass := clusteredCloud(3000, 11)
	tr, _ := BuildFrom(pos, mass, 16, 1)
	groups := tr.MakeGroups(64)
	ref := make([]vec.V3, len(tr.Pos))
	refPot := make([]float64, len(tr.Pos))
	tr.Walk(groups, tr.Pos, 0.4, 1e-4, ref, refPot, 1, nil)
	tr.ComputeProperties() // stale view: the goroutines race to rebuild it

	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			acc := make([]vec.V3, len(tr.Pos))
			pot := make([]float64, len(tr.Pos))
			tr.Walk(groups, tr.Pos, 0.4, 1e-4, acc, pot, 1, nil)
			if !slices.Equal(acc, ref) || !slices.Equal(pot, refPot) {
				t.Error("concurrent walk differs from the serial one")
			}
		}()
	}
	wg.Wait()
}
