package lettree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"bonsai/internal/vec"
)

// This file implements the byte-level wire format for LETs. The in-process
// runtime passes LET pointers (zero copy, like MPI within a node), but this
// is what a cross-node deployment would ship, and it backs the WireBytes
// traffic accounting with a real encoding: Marshal's output length is
// exactly WireBytes().
//
// Layout (little-endian):
//
//	magic   uint32 "LET1"
//	nCells  uint32
//	nParts  uint32
//	box     6 × float64
//	cells   nCells × { com[3], mass, side, delta, quad[6] (f64),
//	                   children[8] (i32), flags (u8), reserved (u8) }
//	parts   nParts × { pos[3], mass } (f64)
//
// Leaf cells have no children, so their particle range [PStart, PN) is
// carried in the first two child slots. Cells are in depth-first preorder, so
// the child slots are redundant with the cell order: Marshal derives them from
// it, and Unmarshal accepts a frame only if they agree with it.

// ErrNotPreorder is returned (wrapped) by Unmarshal for a frame whose child
// links are not exactly those of a depth-first preorder cell sequence: a link
// to the cell itself, to an ancestor, to an already linked cell or past the
// end, or a cell no link reaches. The walks scan cells by position and would
// not terminate, or would skip mass, on such a tree.
var ErrNotPreorder = errors.New("lettree: child links are not in depth-first preorder")

// NilCell marks an absent child slot on the wire, as in package octree.
const NilCell = int32(-1)

const wireMagic = 0x4c455431 // "LET1"

const (
	cellWireBytes   = 12*8 + 8*4 + 2
	partWireBytes   = 4 * 8
	headerWireBytes = 4 + 4 + 4 + 6*8
)

// WireBytes returns the exact encoded size of the LET; the mpi traffic
// meters use it for every boundary-tree and LET transfer.
func (l *LET) WireBytes() int {
	return headerWireBytes + len(l.Cells)*cellWireBytes + len(l.Pos)*partWireBytes
}

// Marshal encodes the LET into a fresh byte slice of length WireBytes().
func (l *LET) Marshal() []byte {
	buf := make([]byte, l.WireBytes())
	le := binary.LittleEndian
	le.PutUint32(buf[0:], wireMagic)
	le.PutUint32(buf[4:], uint32(len(l.Cells)))
	le.PutUint32(buf[8:], uint32(len(l.Pos)))
	off := 12
	putF := func(f float64) {
		le.PutUint64(buf[off:], math.Float64bits(f))
		off += 8
	}
	putF(l.Box.Min.X)
	putF(l.Box.Min.Y)
	putF(l.Box.Min.Z)
	putF(l.Box.Max.X)
	putF(l.Box.Max.Y)
	putF(l.Box.Max.Z)
	for i := range l.Cells {
		c := &l.Cells[i]
		putF(c.MP.COM.X)
		putF(c.MP.COM.Y)
		putF(c.MP.COM.Z)
		putF(c.MP.M)
		putF(c.Side)
		putF(c.Delta)
		putF(c.MP.Quad.XX)
		putF(c.MP.Quad.YY)
		putF(c.MP.Quad.ZZ)
		putF(c.MP.Quad.XY)
		putF(c.MP.Quad.XZ)
		putF(c.MP.Quad.YZ)
		for k := 0; k < 8; k += 2 {
			le.PutUint64(buf[off+4*k:], math.MaxUint64) // two NilCell (int32(-1)) slots
		}
		if c.Leaf {
			le.PutUint32(buf[off:], uint32(c.PStart))
			le.PutUint32(buf[off+4:], uint32(c.PN))
		} else {
			for ch := int32(i) + 1; ch < c.Skip; ch = l.Cells[ch].Skip {
				le.PutUint32(buf[off+4*int(l.Cells[ch].Oct):], uint32(ch))
			}
		}
		off += 8 * 4
		flags := byte(0)
		if c.Leaf {
			flags |= 1
		}
		if c.Openable {
			flags |= 2
		}
		buf[off] = flags
		buf[off+1] = 0 // reserved
		off += 2
	}
	for i, p := range l.Pos {
		putF(p.X)
		putF(p.Y)
		putF(p.Z)
		putF(l.Mass[i])
	}
	return buf[:off]
}

// Unmarshal decodes a LET produced by Marshal. Frames from a peer are
// untrusted: sizes are checked against the buffer before anything is
// allocated, and the child links must be exactly preorder (ErrNotPreorder),
// which is also what yields each cell's Skip and Oct.
func Unmarshal(buf []byte) (*LET, error) {
	le := binary.LittleEndian
	if len(buf) < headerWireBytes {
		return nil, fmt.Errorf("lettree: short buffer (%d bytes)", len(buf))
	}
	if le.Uint32(buf[0:]) != wireMagic {
		return nil, fmt.Errorf("lettree: bad magic %#x", le.Uint32(buf[0:]))
	}
	nCells := int(le.Uint32(buf[4:]))
	nParts := int(le.Uint32(buf[8:]))
	want := headerWireBytes + nCells*cellWireBytes + nParts*partWireBytes
	if len(buf) < want {
		return nil, fmt.Errorf("lettree: truncated: have %d bytes, want %d", len(buf), want)
	}
	off := 12
	getF := func() float64 {
		f := math.Float64frombits(le.Uint64(buf[off:]))
		off += 8
		return f
	}
	l := &LET{
		Cells: make([]Cell, nCells),
		Pos:   make([]vec.V3, nParts),
		Mass:  make([]float64, nParts),
	}
	l.Box.Min.X = getF()
	l.Box.Min.Y = getF()
	l.Box.Min.Z = getF()
	l.Box.Max.X = getF()
	l.Box.Max.Y = getF()
	l.Box.Max.Z = getF()

	// open holds the non-leaf cells whose subtrees are still being decoded,
	// each with the next child slot to match; slot k of cell i is read back
	// from the frame.
	type pending struct {
		cell int32
		slot int
	}
	child := func(p pending) int32 {
		return int32(le.Uint32(buf[headerWireBytes+int(p.cell)*cellWireBytes+12*8+4*p.slot:]))
	}
	open := make([]pending, 0, 32)
	// link matches cell i against the next child slot still pending, closing
	// every subtree that has none left; i == nCells closes them all.
	link := func(i int) error {
		for len(open) > 0 {
			p := &open[len(open)-1]
			for p.slot < 8 && child(*p) == NilCell {
				p.slot++
			}
			if p.slot == 8 {
				l.Cells[p.cell].Skip = int32(i)
				open = open[:len(open)-1]
				continue
			}
			if i == nCells || child(*p) != int32(i) {
				return fmt.Errorf("%w: cell %d child %d, next cell is %d", ErrNotPreorder, p.cell, child(*p), i)
			}
			l.Cells[i].Oct = uint8(p.slot)
			p.slot++
			return nil
		}
		if i != nCells {
			return fmt.Errorf("%w: no link reaches cell %d", ErrNotPreorder, i)
		}
		return nil
	}

	for i := range l.Cells {
		c := &l.Cells[i]
		if i > 0 {
			if err := link(i); err != nil {
				return nil, err
			}
		}
		c.MP.COM.X = getF()
		c.MP.COM.Y = getF()
		c.MP.COM.Z = getF()
		c.MP.M = getF()
		c.Side = getF()
		c.Delta = getF()
		c.MP.Quad.XX = getF()
		c.MP.Quad.YY = getF()
		c.MP.Quad.ZZ = getF()
		c.MP.Quad.XY = getF()
		c.MP.Quad.XZ = getF()
		c.MP.Quad.YZ = getF()
		childBase := off
		off += 8 * 4
		flags := buf[off]
		off += 2
		c.Leaf = flags&1 != 0
		c.Openable = flags&2 != 0
		if c.Leaf {
			ps := int32(le.Uint32(buf[childBase:]))
			pn := int32(le.Uint32(buf[childBase+4:]))
			if pn < 0 || ps < 0 || int(ps)+int(pn) > nParts {
				return nil, fmt.Errorf("lettree: cell %d particle range [%d,%d) out of bounds", i, ps, ps+pn)
			}
			c.PStart, c.PN = ps, pn
			c.Skip = int32(i) + 1
		} else {
			open = append(open, pending{cell: int32(i)})
		}
	}
	if err := link(nCells); err != nil {
		return nil, err
	}
	for i := range l.Pos {
		l.Pos[i] = vec.V3{X: getF(), Y: getF(), Z: getF()}
		l.Mass[i] = getF()
	}
	return l, nil
}
