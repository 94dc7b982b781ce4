// Package vec provides small fixed-size linear-algebra types used throughout
// the tree-code: 3-vectors, symmetric 3x3 matrices (quadrupole moments) and
// axis-aligned bounding boxes.
//
// The types are plain value types with no hidden allocation; hot loops in the
// force kernels operate on them directly.
package vec

import (
	"fmt"
	"math"
)

// V3 is a 3-component vector of float64.
type V3 struct {
	X, Y, Z float64
}

// Add returns a + b.
func (a V3) Add(b V3) V3 { return V3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a V3) Sub(b V3) V3 { return V3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns s * a.
func (a V3) Scale(s float64) V3 { return V3{s * a.X, s * a.Y, s * a.Z} }

// Dot returns the scalar product a · b.
func (a V3) Dot(b V3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns the vector product a × b.
func (a V3) Cross(b V3) V3 {
	return V3{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Norm2 returns |a|².
func (a V3) Norm2() float64 { return a.Dot(a) }

// Norm returns |a|.
func (a V3) Norm() float64 { return math.Sqrt(a.Norm2()) }

// Min returns the component-wise minimum of a and b.
func (a V3) Min(b V3) V3 {
	return V3{math.Min(a.X, b.X), math.Min(a.Y, b.Y), math.Min(a.Z, b.Z)}
}

// Max returns the component-wise maximum of a and b.
func (a V3) Max(b V3) V3 {
	return V3{math.Max(a.X, b.X), math.Max(a.Y, b.Y), math.Max(a.Z, b.Z)}
}

// IsFinite reports whether all components are finite numbers.
func (a V3) IsFinite() bool {
	return !math.IsNaN(a.X) && !math.IsInf(a.X, 0) &&
		!math.IsNaN(a.Y) && !math.IsInf(a.Y, 0) &&
		!math.IsNaN(a.Z) && !math.IsInf(a.Z, 0)
}

// String implements fmt.Stringer.
func (a V3) String() string { return fmt.Sprintf("(%g, %g, %g)", a.X, a.Y, a.Z) }

// Sym3 is a symmetric 3x3 matrix stored as its six independent components.
// It represents the raw quadrupole second-moment tensor Q = Σ m δr δrᵀ used
// by the particle-cell force kernel (paper eqs. 1-2).
type Sym3 struct {
	XX, YY, ZZ float64
	XY, XZ, YZ float64
}

// Add returns q + r.
func (q Sym3) Add(r Sym3) Sym3 {
	return Sym3{
		q.XX + r.XX, q.YY + r.YY, q.ZZ + r.ZZ,
		q.XY + r.XY, q.XZ + r.XZ, q.YZ + r.YZ,
	}
}

// Scale returns s * q.
func (q Sym3) Scale(s float64) Sym3 {
	return Sym3{s * q.XX, s * q.YY, s * q.ZZ, s * q.XY, s * q.XZ, s * q.YZ}
}

// Trace returns tr(q).
func (q Sym3) Trace() float64 { return q.XX + q.YY + q.ZZ }

// MulVec returns q · v.
func (q Sym3) MulVec(v V3) V3 {
	return V3{
		q.XX*v.X + q.XY*v.Y + q.XZ*v.Z,
		q.XY*v.X + q.YY*v.Y + q.YZ*v.Z,
		q.XZ*v.X + q.YZ*v.Y + q.ZZ*v.Z,
	}
}

// Quad returns the quadratic form vᵀ q v.
func (q Sym3) Quad(v V3) float64 { return v.Dot(q.MulVec(v)) }

// Outer returns the outer product m * (v vᵀ) as a symmetric matrix.
func Outer(m float64, v V3) Sym3 {
	return Sym3{
		m * v.X * v.X, m * v.Y * v.Y, m * v.Z * v.Z,
		m * v.X * v.Y, m * v.X * v.Z, m * v.Y * v.Z,
	}
}

// Box is an axis-aligned bounding box.
type Box struct {
	Min, Max V3
}

// EmptyBox returns a box that contains nothing; extending it with any point
// yields a point-box.
func EmptyBox() Box {
	inf := math.Inf(1)
	return Box{Min: V3{inf, inf, inf}, Max: V3{-inf, -inf, -inf}}
}

// Extend returns the smallest box containing both b and point p.
func (b Box) Extend(p V3) Box {
	return Box{Min: b.Min.Min(p), Max: b.Max.Max(p)}
}

// Union returns the smallest box containing both boxes.
func (b Box) Union(o Box) Box {
	return Box{Min: b.Min.Min(o.Min), Max: b.Max.Max(o.Max)}
}

// Center returns the geometric centre of the box.
func (b Box) Center() V3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the extent of the box along each axis.
func (b Box) Size() V3 { return b.Max.Sub(b.Min) }

// Contains reports whether p lies inside the closed box.
func (b Box) Contains(p V3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Empty reports whether the box contains no volume (e.g. EmptyBox).
func (b Box) Empty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Dist2 returns the squared minimum distance from point p to the box
// (zero when p is inside). This is the geometric primitive behind the
// group-based multipole acceptance criterion.
func (b Box) Dist2(p V3) float64 {
	dx := AxisDist(p.X, b.Min.X, b.Max.X)
	dy := AxisDist(p.Y, b.Min.Y, b.Max.Y)
	dz := AxisDist(p.Z, b.Min.Z, b.Max.Z)
	return dx*dx + dy*dy + dz*dz
}

// AxisDist is the distance from p to the interval [lo, hi] along one axis,
// the per-axis term of Box.Dist2 (exported so the tree-walk's hot loop can
// inline the three terms; Dist2 itself is past the inlining budget). At
// most one of lo-p and p-hi is positive, so the sum of their positive parts
// is that one, or zero inside the interval — without the two data-dependent
// branches of the compare form, which the tree-walk's MAC test (three axes
// per visited cell) mispredicted on every other visit.
func AxisDist(p, lo, hi float64) float64 {
	return posPart(lo-p) + posPart(p-hi)
}

// posPart returns x for x > 0 and +0 otherwise: the sign bit, smeared over
// the word, clears a negative x.
func posPart(x float64) float64 {
	b := math.Float64bits(x)
	return math.Float64frombits(b &^ uint64(int64(b)>>63))
}

// Cubify returns the smallest cube with the same centre that contains the
// box, slightly inflated so boundary particles map strictly inside. Octrees
// are built over this cube so that all cells are cubic.
func (b Box) Cubify() Box {
	c := b.Center()
	s := b.Size()
	h := 0.5 * math.Max(s.X, math.Max(s.Y, s.Z))
	h *= 1.0 + 1e-12
	if h == 0 {
		h = 1e-12
	}
	d := V3{h, h, h}
	return Box{Min: c.Sub(d), Max: c.Add(d)}
}
