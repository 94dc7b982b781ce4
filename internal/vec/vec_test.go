package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestV3Arithmetic(t *testing.T) {
	a := V3{1, 2, 3}
	b := V3{-4, 5, 0.5}
	if got := a.Add(b); got != (V3{-3, 7, 3.5}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (V3{5, -3, 2.5}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (V3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != -4+10+1.5 {
		t.Errorf("Dot = %v", got)
	}
}

func TestNorm(t *testing.T) {
	v := V3{3, 4, 12}
	if v.Norm() != 13 {
		t.Errorf("Norm = %v, want 13", v.Norm())
	}
	if v.Norm2() != 169 {
		t.Errorf("Norm2 = %v, want 169", v.Norm2())
	}
}

func TestIsFinite(t *testing.T) {
	if !(V3{1, 2, 3}).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (V3{math.NaN(), 0, 0}).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if (V3{0, math.Inf(1), 0}).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestSym3QuadMatchesExplicit(t *testing.T) {
	q := Sym3{XX: 2, YY: 3, ZZ: 5, XY: -1, XZ: 0.5, YZ: 0.25}
	v := V3{1, -2, 3}
	// explicit v^T Q v
	want := q.XX*v.X*v.X + q.YY*v.Y*v.Y + q.ZZ*v.Z*v.Z +
		2*(q.XY*v.X*v.Y+q.XZ*v.X*v.Z+q.YZ*v.Y*v.Z)
	if got := q.Quad(v); !almostEq(got, want, 1e-12) {
		t.Errorf("Quad = %v, want %v", got, want)
	}
}

func TestOuterTraceIsMassTimesNorm2(t *testing.T) {
	f := func(m, x, y, z float64) bool {
		m, x, y, z = clampf(m), clampf(x), clampf(y), clampf(z)
		v := V3{x, y, z}
		q := Outer(m, v)
		return almostEq(q.Trace(), m*v.Norm2(), 1e-9*(1+math.Abs(m))*(1+v.Norm2()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOuterQuadIdentity(t *testing.T) {
	// v^T (m w w^T) v == m (v·w)^2
	v := V3{1, 2, -1}
	w := V3{0.5, -3, 2}
	q := Outer(2.5, w)
	want := 2.5 * v.Dot(w) * v.Dot(w)
	if got := q.Quad(v); !almostEq(got, want, 1e-10) {
		t.Errorf("Quad = %v, want %v", got, want)
	}
}

func TestBoxExtendContains(t *testing.T) {
	b := EmptyBox()
	if !b.Empty() {
		t.Fatal("EmptyBox not empty")
	}
	pts := []V3{{0, 0, 0}, {1, -2, 5}, {-4, 3, 2}}
	for _, p := range pts {
		b = b.Extend(p)
	}
	if b.Empty() {
		t.Fatal("extended box still empty")
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Errorf("box does not contain %v", p)
		}
	}
	if b.Min != (V3{-4, -2, 0}) || b.Max != (V3{1, 3, 5}) {
		t.Errorf("box bounds wrong: %+v", b)
	}
}

func TestBoxDist2(t *testing.T) {
	b := Box{Min: V3{0, 0, 0}, Max: V3{1, 1, 1}}
	if d := b.Dist2(V3{0.5, 0.5, 0.5}); d != 0 {
		t.Errorf("inside point dist2 = %v", d)
	}
	if d := b.Dist2(V3{2, 0.5, 0.5}); d != 1 {
		t.Errorf("outside point dist2 = %v, want 1", d)
	}
	if d := b.Dist2(V3{2, 2, 0.5}); !almostEq(d, 2, 1e-12) {
		t.Errorf("corner dist2 = %v, want 2", d)
	}
}

func TestCubifyIsCubeAndContains(t *testing.T) {
	b := Box{Min: V3{0, 0, 0}, Max: V3{4, 2, 1}}
	c := b.Cubify()
	s := c.Size()
	if !almostEq(s.X, s.Y, 1e-9) || !almostEq(s.Y, s.Z, 1e-9) {
		t.Errorf("cubified box not cubic: %v", s)
	}
	if s.X < 4 {
		t.Errorf("cube smaller than longest side: %v", s.X)
	}
	for _, p := range []V3{{0, 0, 0}, {4, 2, 1}, {2, 1, 0.5}} {
		if !c.Contains(p) {
			t.Errorf("cubified box does not contain %v", p)
		}
	}
}

func TestBoxUnionCenter(t *testing.T) {
	a := Box{Min: V3{0, 0, 0}, Max: V3{1, 1, 1}}
	b := Box{Min: V3{2, 2, 2}, Max: V3{3, 3, 3}}
	u := a.Union(b)
	if u.Min != (V3{0, 0, 0}) || u.Max != (V3{3, 3, 3}) {
		t.Errorf("union = %+v", u)
	}
	if u.Center() != (V3{1.5, 1.5, 1.5}) {
		t.Errorf("center = %v", u.Center())
	}
}

// clampf maps arbitrary quick-generated floats into a tame range.
func clampf(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e3)
}
