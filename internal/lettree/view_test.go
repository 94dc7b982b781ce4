package lettree

import (
	"slices"
	"sync"
	"testing"

	"bonsai/internal/grav"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// stackWalk is the LET traversal the walk ran before the preorder view: an
// explicit stack, the MAC evaluated per visit from Side and Delta, children
// pushed in octant order. It is the oracle the view walk is compared against.
func stackWalk(l *LET, groupBox vec.Box, theta float64) (cells, parts []int32, forced int64) {
	if l.Empty() {
		return nil, nil, 0
	}
	stack := []int32{0}
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := &l.Cells[idx]
		if c.MP.M == 0 {
			continue
		}
		open := c.Side/theta + c.Delta
		switch {
		case !(groupBox.Dist2(c.MP.COM) < open*open):
			cells = append(cells, idx)
		case c.Kind == octree.ViewPruned:
			cells = append(cells, idx)
			forced++
		case c.Kind == octree.ViewLeaf:
			for i := c.Start; i < c.Start+c.N; i++ {
				parts = append(parts, i)
			}
		default:
			for ch := idx + 1; ch < c.Skip; ch = l.Cells[ch].Skip {
				stack = append(stack, ch)
			}
		}
	}
	return cells, parts, forced
}

// requireViewMatchesStack asserts, group by group, that the shared gather
// delivers the same set of multipoles and source particles as the stack
// oracle, and that Walk reports the oracle's interaction and forced-accept
// counts.
func requireViewMatchesStack(t *testing.T, l *LET, tpos []vec.V3, theta float64, label string) (forced int64) {
	t.Helper()
	groups := octree.GroupsOf(tpos, 32)
	cells := l.WalkView(theta)
	var w octree.Walker
	var want grav.Stats
	sameSet4 := func(a, b [][4]float64) bool {
		cmp := func(x, y [4]float64) int { return slices.Compare(x[:], y[:]) }
		slices.SortFunc(a, cmp)
		slices.SortFunc(b, cmp)
		return slices.Equal(a, b)
	}
	sameSet10 := func(a, b [][10]float64) bool {
		cmp := func(x, y [10]float64) int { return slices.Compare(x[:], y[:]) }
		slices.SortFunc(a, cmp)
		slices.SortFunc(b, cmp)
		return slices.Equal(a, b)
	}
	for gi, g := range groups {
		wc, wp, wf := stackWalk(l, g.Box, theta)
		gf := w.Gather(l, cells, g.Box)
		if gf != wf {
			t.Fatalf("%s: group %d: %d forced accepts, stack oracle %d", label, gi, gf, wf)
		}
		var wantPC, gotPC [][10]float64
		for _, ci := range wc {
			m := l.Cells[ci].MP
			wantPC = append(wantPC, [10]float64{m.COM.X, m.COM.Y, m.COM.Z, m.M, m.Quad.XX, m.Quad.YY, m.Quad.ZZ, m.Quad.XY, m.Quad.XZ, m.Quad.YZ})
		}
		for k := 0; k < w.PC.Len(); k++ {
			gotPC = append(gotPC, [10]float64{w.PC.X[k], w.PC.Y[k], w.PC.Z[k], w.PC.M[k], w.PC.XX[k], w.PC.YY[k], w.PC.ZZ[k], w.PC.XY[k], w.PC.XZ[k], w.PC.YZ[k]})
		}
		if !sameSet10(gotPC, wantPC) {
			t.Fatalf("%s: group %d: multipole sets differ: view %d, stack %d", label, gi, len(gotPC), len(wantPC))
		}
		var wantPP, gotPP [][4]float64
		for _, pi := range wp {
			wantPP = append(wantPP, [4]float64{l.Pos[pi].X, l.Pos[pi].Y, l.Pos[pi].Z, l.Mass[pi]})
		}
		for k := 0; k < w.PP.Len(); k++ {
			gotPP = append(gotPP, [4]float64{w.PP.X[k], w.PP.Y[k], w.PP.Z[k], w.PP.M[k]})
		}
		if !sameSet4(gotPP, wantPP) {
			t.Fatalf("%s: group %d: particle sets differ: view %d, stack %d", label, gi, len(gotPP), len(wantPP))
		}
		want.PC += uint64(len(wc)) * uint64(g.N)
		want.PP += uint64(len(wp)) * uint64(g.N)
		forced += wf
	}
	var got grav.Stats
	acc := make([]vec.V3, len(tpos))
	pot := make([]float64, len(tpos))
	if f := Walk(l, groups, tpos, theta, 1e-4, acc, pot, 3, &got); f != forced || got != want {
		t.Fatalf("%s: walk forced %d stats %+v, stack oracle forced %d stats %+v", label, f, got, forced, want)
	}
	return forced
}

// octreeChildren lists cell i's children without reading Skip: the cells one
// level down among the run of later cells nested in it by (Level, Start, N) —
// package octree's childTable, which a test here cannot import.
func octreeChildren(tr *octree.Tree, i int32) (kids []int32) {
	p := &tr.Cells[i]
	for j := i + 1; int(j) < len(tr.Cells); j++ {
		c := &tr.Cells[j]
		if c.Level <= p.Level || c.Start < p.Start || c.Start+c.N > p.Start+p.N {
			break
		}
		if c.Level == p.Level+1 {
			kids = append(kids, j)
		}
	}
	return kids
}

// requireMirrorsOctree checks the preorder form itself against the source
// tree: descending both in step, every LET cell carries its octree cell's
// moments, its children are the Skip chain, and a cell's subtree ends exactly
// at its Skip.
func requireMirrorsOctree(t *testing.T, l *LET, tr *octree.Tree, label string) {
	t.Helper()
	next := int32(0)
	var rec func(src int32)
	rec = func(src int32) {
		i := next
		next++
		c, sc := &l.Cells[i], &tr.Cells[src]
		if c.MP != sc.MP || c.Side != sc.Side || c.Delta != sc.Delta {
			t.Fatalf("%s: LET cell %d does not mirror octree cell %d", label, i, src)
		}
		if c.Kind != octree.ViewPruned && (c.Kind == octree.ViewLeaf) != sc.Leaf {
			t.Fatalf("%s: LET cell %d has kind %d over octree cell %d (leaf: %v)", label, i, c.Kind, src, sc.Leaf)
		}
		if c.Kind == octree.ViewInner {
			ch := i + 1
			for _, sch := range octreeChildren(tr, src) {
				if ch != next {
					t.Fatalf("%s: cell %d: child chain at %d, preorder at %d", label, i, ch, next)
				}
				rec(sch)
				ch = l.Cells[ch].Skip
			}
		}
		if c.Skip != next {
			t.Fatalf("%s: cell %d: Skip %d, subtree ends at %d", label, i, c.Skip, next)
		}
	}
	rec(0)
	if int(next) != len(l.Cells) {
		t.Fatalf("%s: %d of %d cells reachable", label, next, len(l.Cells))
	}
}

func TestViewWalkMatchesStackWalk(t *testing.T) {
	posB, massB := blob(6000, vec.V3{X: 2}, 1, 41)
	for i, p := range posB {
		if p.Y > 0.8 || i%11 == 0 { // a massless region and scattered massless particles
			massB[i] = 0
		}
	}
	trB, _ := octree.BuildFrom(posB, massB, 8, 2)
	lb := boxOf(posB)
	near, _ := blob(600, vec.V3{X: -0.5}, 0.6, 42)
	far, _ := blob(300, vec.V3{X: -30}, 0.5, 43)

	roundTrip := func(l *LET) *LET {
		got, err := Unmarshal(l.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	var forcedSeen int64
	for _, depth := range []int{1, 3, 6} {
		bt := BoundaryTree(trB, depth, lb)
		requireMirrorsOctree(t, bt, trB, "boundary")
		forcedSeen += requireViewMatchesStack(t, bt, near, 0.4, "boundary/near")
		requireViewMatchesStack(t, bt, far, 0.6, "boundary/far, second theta")
		forcedSeen += requireViewMatchesStack(t, roundTrip(bt), near, 0.4, "boundary/decoded")
	}
	if forcedSeen == 0 {
		t.Fatal("no boundary tree was ever forced to accept a pruned cell: the pruned path went untested")
	}
	let := BuildFor(trB, boxOf(near), 0.4, lb)
	requireMirrorsOctree(t, let, trB, "LET")
	if f := requireViewMatchesStack(t, let, near, 0.4, "LET/own targets"); f != 0 {
		t.Fatalf("LET forced %d accepts for the targets it was built for", f)
	}
	requireViewMatchesStack(t, roundTrip(let), near, 0.4, "LET/decoded")
	// Walked by targets it was not built for, a LET's closed cells are forced.
	farLET := BuildFor(trB, boxOf(far), 0.4, lb)
	if f := requireViewMatchesStack(t, farLET, near, 0.4, "LET/foreign targets"); f == 0 {
		t.Fatal("foreign targets opened no closed cell")
	}
	if !Sufficient(farLET, boxOf(far), 0.4) || Sufficient(farLET, boxOf(near), 0.4) {
		t.Fatal("Sufficient disagrees with the forced-accept counts")
	}
}

// TestSharedBoundaryTreeConcurrentWalks is the chan transport's situation:
// one boundary tree, passed by reference, first walked by eight ranks at
// once (run under -race in make race).
func TestSharedBoundaryTreeConcurrentWalks(t *testing.T) {
	posB, massB := blob(4000, vec.V3{X: 6}, 0.8, 44)
	trB, _ := octree.BuildFrom(posB, massB, 16, 2)
	bt := BoundaryTree(trB, 4, boxOf(posB))
	tpos, _ := blob(400, vec.V3{X: -6}, 0.5, 45)
	groups := octree.GroupsOf(tpos, 64)

	ref := make([]vec.V3, len(tpos))
	refPot := make([]float64, len(tpos))
	Walk(BoundaryTree(trB, 4, boxOf(posB)), groups, tpos, 0.4, 1e-4, ref, refPot, 1, nil)

	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !Sufficient(bt, boxOf(tpos), 0.4) {
				t.Error("boundary tree not sufficient for the distant targets")
			}
			acc := make([]vec.V3, len(tpos))
			pot := make([]float64, len(tpos))
			Walk(bt, groups, tpos, 0.4, 1e-4, acc, pot, 2, nil)
			if !slices.Equal(acc, ref) || !slices.Equal(pot, refPot) {
				t.Error("concurrent walk of the shared tree differs from a private one")
			}
		}()
	}
	wg.Wait()
}
