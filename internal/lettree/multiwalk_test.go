package lettree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bonsai/internal/grav"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// remoteTrees builds n remote trees of mixed kinds around a target cloud, the
// population one rank's batched pass sees: boundary trees (deep enough to be
// sufficient, and — every seventh — shallow enough to be forced), full LETs
// built for the target box, wire round trips of both, plus an empty LET and a
// single-cell tree. Source domains are Gaussian blobs or, every other one, a
// clump of sub-blobs; every fifth sits close enough to be opened to particles.
func remoteTrees(t testing.TB, n int, tbox vec.Box, theta float64, seed int64) []*LET {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	trees := make([]*LET, 0, n)
	for k := 0; len(trees) < n; k++ {
		switch k % 11 {
		case 4:
			trees = append(trees, &LET{Box: vec.EmptyBox()})
			continue
		case 8:
			pos, mass := blob(3, vec.V3{X: 25, Y: float64(k)}, 0.1, seed+int64(k))
			tr, _ := octree.BuildFrom(pos, mass, 16, 1)
			if len(tr.Cells) != 1 {
				t.Fatalf("want a single-cell tree, have %d cells", len(tr.Cells))
			}
			trees = append(trees, BoundaryTree(tr, 2, boxOf(pos)))
			continue
		}
		dist := 8 + 30*rng.Float64()
		if k%5 == 0 {
			dist = 2.5
		}
		phi, z := 2*math.Pi*rng.Float64(), 2*rng.Float64()-1
		c := vec.V3{X: dist * math.Cos(phi), Y: dist * math.Sin(phi), Z: dist * z / 2}
		var pos []vec.V3
		var mass []float64
		if k%2 == 0 {
			pos, mass = blob(400+rng.Intn(400), c, 0.7, seed+int64(k))
		} else {
			for sub := 0; sub < 4; sub++ {
				sc := c.Add(vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()})
				p, m := blob(150, sc, 0.08, seed+int64(100*k+sub))
				pos, mass = append(pos, p...), append(mass, m...)
			}
		}
		tr, _ := octree.BuildFrom(pos, mass, 8, 1)
		var l *LET
		switch {
		case k%7 == 0:
			l = BoundaryTree(tr, 1, boxOf(pos)) // too shallow for near targets: forced accepts
		case k%3 == 0:
			l = BoundaryTree(tr, 5, boxOf(pos))
		default:
			l = BuildFor(tr, tbox, theta, boxOf(pos))
		}
		if k%4 == 1 {
			got, err := Unmarshal(l.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			l = got
		}
		trees = append(trees, l)
	}
	return trees
}

func asSources(trees []*LET) []octree.Source {
	srcs := make([]octree.Source, len(trees))
	for i, l := range trees {
		srcs[i] = l
	}
	return srcs
}

// TestWalkSourcesMatchesPerTreeOracle holds the multi-source walk to the walk
// it replaced in the gravity pipeline — one WalkSource per tree, in order —
// and to the stack traversal for the content of every group's merged list.
func TestWalkSourcesMatchesPerTreeOracle(t *testing.T) {
	const theta, eps2 = 0.4, 1e-4
	for _, cloud := range []string{"random", "clustered"} {
		var tpos []vec.V3
		if cloud == "random" {
			tpos, _ = blob(700, vec.V3{}, 0.8, 71)
		} else {
			for sub := 0; sub < 5; sub++ {
				p, _ := blob(140, vec.V3{X: 0.6 * float64(sub-2), Y: 0.3 * float64(sub%2)}, 0.05, 72+int64(sub))
				tpos = append(tpos, p...)
			}
		}
		tbox := boxOf(tpos)
		groups := octree.GroupsOf(tpos, 32)
		for _, n := range []int{1, 3, 63} {
			t.Run(fmt.Sprintf("%s/%dtrees", cloud, n), func(t *testing.T) {
				trees := remoteTrees(t, n, tbox, theta, int64(100*n))
				requireMergedListsMatchStack(t, trees, groups, theta)
				wantForced := requireForcesMatchPerTreeWalks(t, trees, groups, tpos, theta, eps2)
				if n == 63 && wantForced == 0 {
					t.Fatal("no tree was forced to accept a pruned cell: the forced path went untested")
				}
			})
		}
	}
}

// requireMergedListsMatchStack checks, group by group, that appending the
// trees in order leaves one segment per tree in the merged list, in source
// order, and that each segment holds exactly the multipoles and particles the
// stack oracle lists for that (group, tree).
func requireMergedListsMatchStack(t *testing.T, trees []*LET, groups []octree.Group, theta float64) {
	t.Helper()
	sorted4 := func(a [][4]float64) [][4]float64 {
		slices.SortFunc(a, func(x, y [4]float64) int { return slices.Compare(x[:], y[:]) })
		return a
	}
	var w octree.Walker
	for gi, g := range groups {
		w.Reset()
		for ti, l := range trees {
			pc0, pp0 := w.PC.Len(), w.PP.Len()
			wc, wp, wf := stackWalk(l, g.Box, theta)
			if f := w.Append(l, l.WalkView(theta), g.Box); f != wf {
				t.Fatalf("group %d tree %d: %d forced accepts, stack oracle %d", gi, ti, f, wf)
			}
			if w.PC.Len() != pc0+len(wc) || w.PP.Len() != pp0+len(wp) {
				t.Fatalf("group %d tree %d: segment of %d cells + %d particles, stack oracle %d + %d",
					gi, ti, w.PC.Len()-pc0, w.PP.Len()-pp0, len(wc), len(wp))
			}
			var wantPC, gotPC, wantPP, gotPP [][4]float64
			for _, ci := range wc {
				m := l.Cells[ci].MP
				wantPC = append(wantPC, [4]float64{m.COM.X, m.COM.Y, m.COM.Z, m.M}, [4]float64{m.Quad.XX, m.Quad.YY, m.Quad.ZZ, m.Quad.XY})
			}
			for k := pc0; k < w.PC.Len(); k++ {
				gotPC = append(gotPC, [4]float64{w.PC.X[k], w.PC.Y[k], w.PC.Z[k], w.PC.M[k]}, [4]float64{w.PC.XX[k], w.PC.YY[k], w.PC.ZZ[k], w.PC.XY[k]})
			}
			for _, pi := range wp {
				wantPP = append(wantPP, [4]float64{l.Pos[pi].X, l.Pos[pi].Y, l.Pos[pi].Z, l.Mass[pi]})
			}
			for k := pp0; k < w.PP.Len(); k++ {
				gotPP = append(gotPP, [4]float64{w.PP.X[k], w.PP.Y[k], w.PP.Z[k], w.PP.M[k]})
			}
			if !slices.Equal(sorted4(gotPC), sorted4(wantPC)) || !slices.Equal(sorted4(gotPP), sorted4(wantPP)) {
				t.Fatalf("group %d tree %d: merged-list segment differs from the stack oracle's lists", gi, ti)
			}
		}
	}
}

// requireForcesMatchPerTreeWalks compares one WalkSources pass with one Walk
// per tree, in order: equal interaction counts and forced accepts, forces
// equal to grav.KernelTol of the magnitude the per-tree walks accumulated
// (the merged list changes the order of the sums and, on the float32 tier,
// the normalisation of each call), for one and for several workers. It returns the forced-accept count.
func requireForcesMatchPerTreeWalks(t *testing.T, trees []*LET, groups []octree.Group, tpos []vec.V3, theta, eps2 float64) int64 {
	t.Helper()
	n := len(tpos)
	want, wantPot := make([]vec.V3, n), make([]float64, n)
	mag, magPot := make([]float64, n), make([]float64, n)
	var wantSt grav.Stats
	var wantForced int64
	one, onePot := make([]vec.V3, n), make([]float64, n)
	for _, l := range trees {
		clear(one)
		clear(onePot)
		wantForced += Walk(l, groups, tpos, theta, eps2, one, onePot, 1, &wantSt)
		for i := range one {
			want[i] = want[i].Add(one[i])
			wantPot[i] += onePot[i]
			mag[i] += one[i].Norm()
			magPot[i] += math.Abs(onePot[i])
		}
	}
	for _, workers := range []int{1, 3} {
		got, gotPot := make([]vec.V3, n), make([]float64, n)
		var st grav.Stats
		forced := octree.WalkSources(asSources(trees), groups, tpos, theta, eps2, got, gotPot, workers, &st)
		if forced != wantForced || st != wantSt {
			t.Fatalf("workers=%d: forced %d stats %+v, per-tree walks forced %d stats %+v", workers, forced, st, wantForced, wantSt)
		}
		for i := range got {
			if d := got[i].Sub(want[i]).Norm(); d > grav.KernelTol()*mag[i] {
				t.Fatalf("workers=%d: acc[%d] off by %g, accumulated magnitude %g", workers, i, d, mag[i])
			}
			if d := math.Abs(gotPot[i] - wantPot[i]); d > grav.KernelTol()*magPot[i] {
				t.Fatalf("workers=%d: pot[%d] off by %g, accumulated magnitude %g", workers, i, d, magPot[i])
			}
		}
	}
	return wantForced
}

// TestConcurrentPassesShareBoundaryTrees is the chan transport's situation
// after batching: eight ranks run passes at once over overlapping sets of the
// same boundary trees, handed over by reference, the first walker of each
// tree building its view (run under -race in make race).
func TestConcurrentPassesShareBoundaryTrees(t *testing.T) {
	const theta, eps2 = 0.4, 1e-4
	const window = 8
	shared := make([]*LET, 12)
	fresh := make([]*LET, len(shared)) // private copies: the reference passes leave the shared trees unviewed
	for k := range shared {
		pos, mass := blob(500, vec.V3{X: 10 * float64(k-6), Y: 14}, 0.8, 80+int64(k))
		tr, _ := octree.BuildFrom(pos, mass, 16, 1)
		shared[k] = BoundaryTree(tr, 4, boxOf(pos))
		fresh[k] = BoundaryTree(tr, 4, boxOf(pos))
	}
	tpos, _ := blob(300, vec.V3{Y: -14}, 0.6, 99)
	groups := octree.GroupsOf(tpos, 64)
	ref := make([][]vec.V3, len(shared)-window+1)
	refPot := make([][]float64, len(ref))
	for lo := range ref {
		ref[lo], refPot[lo] = make([]vec.V3, len(tpos)), make([]float64, len(tpos))
		octree.WalkSources(asSources(fresh[lo:lo+window]), groups, tpos, theta, eps2, ref[lo], refPot[lo], 1, nil)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo := g % len(ref) // overlapping windows of the shared trees
			acc, pot := make([]vec.V3, len(tpos)), make([]float64, len(tpos))
			if f := octree.WalkSources(asSources(shared[lo:lo+window]), groups, tpos, theta, eps2, acc, pot, 2, nil); f != 0 {
				t.Errorf("pass %d: %d forced accepts from sufficient boundary trees", g, f)
			}
			if !slices.Equal(acc, ref[lo]) || !slices.Equal(pot, refPot[lo]) {
				t.Errorf("pass %d over shared trees differs from the pass over private copies", g)
			}
		}(g)
	}
	wg.Wait()
}
