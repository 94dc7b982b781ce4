// Package keys implements the two space-filling-curve keys used by the
// tree-code:
//
//   - Morton (Z-order) keys: the local octree is built over them, because a
//     Morton key's 3-bit digits are exactly the octant path from the root.
//   - Peano–Hilbert keys: the domain decomposition cuts the global PH curve
//     into contiguous ranges (paper §III.B.1, Fig. 2). The Hilbert curve is
//     preferred for decomposition because consecutive keys are spatially
//     adjacent, which keeps domain surfaces — and therefore communication
//     volume — small.
//
// Keys are 63-bit (21 bits per dimension) and are computed from integer grid
// coordinates obtained by mapping positions into the global bounding cube.
package keys

import (
	"bonsai/internal/vec"
)

// Bits is the number of bits per dimension in a key.
const Bits = 21

// MaxCoord is the largest representable grid coordinate.
const MaxCoord = (1 << Bits) - 1

// Key is a 63-bit space-filling-curve key. The ordering of Key values (as
// plain integers) is the curve order.
type Key uint64

// MaxKey is the largest valid key plus one; usable as an exclusive upper
// bound for domain ranges.
const MaxKey = Key(1) << (3 * Bits)

// Grid maps continuous positions into integer lattice coordinates.
type Grid struct {
	box   vec.Box
	scale vec.V3 // cells per unit length in each dimension
}

// NewGrid builds a grid over the given bounding box. The box is cubified so
// cells are cubic, matching the octree geometry.
func NewGrid(b vec.Box) Grid {
	cube := b.Cubify()
	s := cube.Size()
	return Grid{
		box: cube,
		scale: vec.V3{
			X: float64(MaxCoord+1) / s.X,
			Y: float64(MaxCoord+1) / s.Y,
			Z: float64(MaxCoord+1) / s.Z,
		},
	}
}

// Box returns the (cubified) domain of the grid.
func (g Grid) Box() vec.Box { return g.box }

// Coords maps a position to integer lattice coordinates, clamped into range.
func (g Grid) Coords(p vec.V3) (x, y, z uint32) {
	d := p.Sub(g.box.Min)
	return clamp(d.X * g.scale.X), clamp(d.Y * g.scale.Y), clamp(d.Z * g.scale.Z)
}

// CellBox returns the spatial box of the lattice cell at (x, y, z) for a tree
// level; level 0 is the root (whole box), level Bits is a unit lattice cell.
func (g Grid) CellBox(x, y, z uint32, level int) vec.Box {
	if level < 0 {
		level = 0
	}
	if level > Bits {
		level = Bits
	}
	shift := uint(Bits - level)
	// Cell-aligned coordinates at this level.
	cx, cy, cz := x>>shift<<shift, y>>shift<<shift, z>>shift<<shift
	n := float64(uint32(1) << shift)
	lo := vec.V3{
		X: g.box.Min.X + float64(cx)/g.scale.X,
		Y: g.box.Min.Y + float64(cy)/g.scale.Y,
		Z: g.box.Min.Z + float64(cz)/g.scale.Z,
	}
	return vec.Box{Min: lo, Max: lo.Add(vec.V3{X: n / g.scale.X, Y: n / g.scale.Y, Z: n / g.scale.Z})}
}

func clamp(v float64) uint32 {
	if v < 0 {
		return 0
	}
	if v > MaxCoord {
		return MaxCoord
	}
	return uint32(v)
}

// ---------------------------------------------------------------------------
// Morton (Z-order) keys

// Morton interleaves the bits of (x, y, z) into a Z-order key with x
// occupying the most significant bit of every 3-bit digit. Each 3-bit digit,
// from the top down, is the octant index along the path from the octree root.
func Morton(x, y, z uint32) Key {
	return Key(spread(uint64(x))<<2 | spread(uint64(y))<<1 | spread(uint64(z)))
}

// MortonOf maps a position through the grid to its Morton key.
func (g Grid) MortonOf(p vec.V3) Key {
	x, y, z := g.Coords(p)
	return Morton(x, y, z)
}

// MortonDecode recovers lattice coordinates from a Morton key.
func MortonDecode(k Key) (x, y, z uint32) {
	return compact(uint64(k) >> 2), compact(uint64(k) >> 1), compact(uint64(k))
}

// Octant returns the 3-bit octant digit of the key at the given tree level.
// Level 0 selects among the root's children.
func (k Key) Octant(level int) int {
	shift := uint(3 * (Bits - 1 - level))
	return int((uint64(k) >> shift) & 7)
}

// spread inserts two zero bits between each of the low 21 bits of v.
func spread(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// compact is the inverse of spread.
func compact(v uint64) uint32 {
	v &= 0x1249249249249249
	v = (v ^ v>>2) & 0x10c30c30c30c30c3
	v = (v ^ v>>4) & 0x100f00f00f00f00f
	v = (v ^ v>>8) & 0x1f0000ff0000ff
	v = (v ^ v>>16) & 0x1f00000000ffff
	v = (v ^ v>>32) & 0x1fffff
	return uint32(v)
}

// ---------------------------------------------------------------------------
// Peano–Hilbert keys (Skilling's transpose algorithm, 3 dimensions)

// Hilbert maps lattice coordinates to their Peano–Hilbert curve index.
func Hilbert(x, y, z uint32) Key {
	ax := [3]uint32{x, y, z}
	axesToTranspose(&ax)
	return interleaveTranspose(ax)
}

// HilbertOf maps a position through the grid to its Peano–Hilbert key.
func (g Grid) HilbertOf(p vec.V3) Key {
	x, y, z := g.Coords(p)
	return Hilbert(x, y, z)
}

// HilbertDecode recovers lattice coordinates from a Peano–Hilbert key.
func HilbertDecode(k Key) (x, y, z uint32) {
	ax := deinterleaveTranspose(k)
	transposeToAxes(&ax)
	return ax[0], ax[1], ax[2]
}

// axesToTranspose converts coordinates in place into Skilling's "transpose"
// representation of the Hilbert index.
func axesToTranspose(x *[3]uint32) {
	const n = 3
	m := uint32(1) << (Bits - 1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert
			} else {
				t := (x[0] ^ x[i]) & p // exchange
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	t := uint32(0)
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes is the inverse of axesToTranspose.
func transposeToAxes(x *[3]uint32) {
	const n = 3
	bound := uint32(2) << (Bits - 1)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != bound; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// interleaveTranspose packs the transpose representation into a single key:
// bit (Bits-1-b) of x[i] becomes bit 3*(Bits-1-b)+(2-i) of the key, i.e. the
// key reads x[0] x[1] x[2] from the most significant position down.
func interleaveTranspose(x [3]uint32) Key {
	var k uint64
	for b := Bits - 1; b >= 0; b-- {
		k = k<<1 | uint64(x[0]>>uint(b))&1
		k = k<<1 | uint64(x[1]>>uint(b))&1
		k = k<<1 | uint64(x[2]>>uint(b))&1
	}
	return Key(k)
}

// deinterleaveTranspose is the inverse of interleaveTranspose.
func deinterleaveTranspose(k Key) [3]uint32 {
	var x [3]uint32
	v := uint64(k)
	for b := 0; b < Bits; b++ {
		x[2] |= uint32(v&1) << uint(b)
		v >>= 1
		x[1] |= uint32(v&1) << uint(b)
		v >>= 1
		x[0] |= uint32(v&1) << uint(b)
		v >>= 1
	}
	return x
}
