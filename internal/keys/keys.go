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
// Peano–Hilbert keys (Skilling's transpose algorithm as a state machine)

// hilbertState is what Skilling's transform ("Programming the Hilbert curve",
// 2004) carries from a level to the next, top bit first. A level's bits choose
// invert/exchange operations on every lower bit, so a level sees the input
// through a signed axis permutation: its bit j is input bit perm[j],
// complemented when flip[j] is 1. The level is then Gray-coded and XORed with
// par, the parity of the Gray-coded z bits above it.
type hilbertState struct {
	perm, flip [3]uint8
	par        uint8
}

// step consumes one level's Morton digit m (x in bit 2) and returns the
// Hilbert digit emitted and the state entering the level below.
func (s hilbertState) step(m uint16) (digit uint16, next hilbertState) {
	var y [3]uint8
	for j := range y {
		y[j] = uint8(m>>(2-s.perm[j]))&1 ^ s.flip[j]
	}
	g0, g1, g2 := y[0], y[0]^y[1], y[0]^y[1]^y[2] // Gray code
	digit = uint16(g0^s.par)<<2 | uint16(g1^s.par)<<1 | uint16(g2^s.par)
	next = s
	next.par ^= g2
	for i := range y {
		if y[i] == 1 { // invert axis 0
			next.flip[0] ^= 1
		} else { // exchange axes 0 and i
			next.perm[0], next.perm[i] = next.perm[i], next.perm[0]
			next.flip[0], next.flip[i] = next.flip[i], next.flip[0]
		}
	}
	return digit, next
}

// hilbertTop holds the top level's transitions from the identity state, and
// hilbertTable two levels' transitions from each state reachable from it (48),
// derived at init. An entry next<<6 | digits is also, masked by ^63, the base
// index of the next state's row.
var hilbertTop [8]uint16
var hilbertTable []uint16

func init() {
	start := hilbertState{perm: [3]uint8{0, 1, 2}}
	index := map[hilbertState]uint16{start: 0}
	states := []hilbertState{start}
	id := func(s hilbertState) uint16 {
		if _, ok := index[s]; !ok {
			index[s] = uint16(len(states))
			states = append(states, s)
		}
		return index[s]
	}
	for m := uint16(0); m < 8; m++ {
		d, s := start.step(m)
		hilbertTop[m] = id(s)<<6 | d
	}
	for i := 0; i < len(states); i++ { // states grows as new ones are reached
		for mm := uint16(0); mm < 64; mm++ {
			d1, s1 := states[i].step(mm >> 3)
			d2, s2 := s1.step(mm & 7)
			hilbertTable = append(hilbertTable, id(s2)<<6|d1<<3|d2)
		}
	}
}

// Hilbert maps lattice coordinates to their Peano–Hilbert curve index: the
// Morton digits of (x, y, z), read through the state machine.
func Hilbert(x, y, z uint32) Key {
	m := uint64(Morton(x, y, z))
	e := hilbertTop[m>>60]
	h := uint64(e & 7)
	for s := 54; s >= 0; s -= 6 {
		e = hilbertTable[e&^63|uint16(m>>s)&63]
		h = h<<6 | uint64(e&63)
	}
	return Key(h)
}

// HilbertOf maps a position through the grid to its Peano–Hilbert key.
func (g Grid) HilbertOf(p vec.V3) Key {
	x, y, z := g.Coords(p)
	return Hilbert(x, y, z)
}
