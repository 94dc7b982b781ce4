package lettree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"bonsai/internal/octree"
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
//	magic   uint32 "LET2"
//	nCells  uint32
//	nParts  uint32
//	box     6 × float64
//	cells   nCells × { com[3], mass, side, delta, quad[6] (f64),
//	                   skip, start, n (u32), kind (u8) }
//	parts   nParts × { pos[3], mass } (f64)
//
// The wire cell is the in-memory Cell field for field: the cells are in
// depth-first preorder and skip is the whole topology, on the wire as in
// memory.

// ErrNotPreorder is returned (wrapped) by Unmarshal for a frame whose skips
// do not nest as the subtrees of one depth-first preorder tree: a skip at or
// before its own cell or past the end of the enclosing subtree, a leaf or
// pruned cell with a subtree, an inner cell without one, or a cell after the
// root's subtree. The walks scan cells by position and would not terminate,
// or would skip mass, on such a tree.
var ErrNotPreorder = errors.New("lettree: cell skips are not those of a depth-first preorder")

const wireMagic = 0x4c455432 // "LET2"

const (
	cellWireBytes   = 12*8 + 3*4 + 1
	partWireBytes   = 4 * 8
	headerWireBytes = 4 + 4 + 4 + 6*8
)

// WireBytes returns the exact encoded size of the LET; the mpi traffic
// meters use it for every boundary-tree and LET transfer.
func (l *LET) WireBytes() int {
	return headerWireBytes + len(l.Cells)*cellWireBytes + len(l.Pos)*partWireBytes
}

// Marshal encodes the LET into a fresh byte slice of length WireBytes().
func (l *LET) Marshal() []byte { return l.AppendWire(nil) }

// AppendWire appends the LET's encoding, WireBytes() long, to b, growing b at
// most once: a caller that sized b for it (the socket transport's frame)
// gets the LET encoded in place.
func (l *LET) AppendWire(b []byte) []byte {
	n, size := len(b), l.WireBytes()
	b = slices.Grow(b, size)[:n+size]
	buf := b[n:]
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
		le.PutUint32(buf[off:], uint32(c.Skip))
		le.PutUint32(buf[off+4:], uint32(c.Start))
		le.PutUint32(buf[off+8:], uint32(c.N))
		buf[off+12] = byte(c.Kind)
		off += 3*4 + 1
	}
	for i, p := range l.Pos {
		putF(p.X)
		putF(p.Y)
		putF(p.Z)
		putF(l.Mass[i])
	}
	return b
}

// Unmarshal decodes a LET produced by Marshal. Frames from a peer are
// untrusted: sizes are checked against the buffer before anything is
// allocated, and every skip must nest inside the subtree that encloses it
// (ErrNotPreorder), so every forward scan of the decoded cells terminates.
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

	// open holds the Skip of every inner cell whose subtree cell i lies in,
	// innermost last.
	open := make([]int, 0, 32)
	for i := range l.Cells {
		c := &l.Cells[i]
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
		skip, start, n := int(le.Uint32(buf[off:])), int(le.Uint32(buf[off+4:])), int(le.Uint32(buf[off+8:]))
		kind := int32(buf[off+12])
		off += 3*4 + 1

		for len(open) > 0 && open[len(open)-1] == i {
			open = open[:len(open)-1]
		}
		end := nCells
		if len(open) > 0 {
			end = open[len(open)-1]
		} else if i > 0 {
			return nil, fmt.Errorf("%w: cell %d follows the root's subtree", ErrNotPreorder, i)
		}
		if kind > octree.ViewPruned {
			return nil, fmt.Errorf("lettree: cell %d has unknown kind %d", i, kind)
		}
		if hasSubtree := skip > i+1; skip <= i || skip > end || hasSubtree != (kind == octree.ViewInner) {
			return nil, fmt.Errorf("%w: cell %d (kind %d) skips to %d inside a subtree ending at %d",
				ErrNotPreorder, i, kind, skip, end)
		}
		if start+n > nParts {
			return nil, fmt.Errorf("lettree: cell %d particle range [%d,%d) out of bounds", i, start, start+n)
		}
		if kind == octree.ViewInner {
			open = append(open, skip)
		}
		c.Skip, c.Start, c.N, c.Kind = int32(skip), int32(start), int32(n), kind
	}
	for i := range l.Pos {
		l.Pos[i] = vec.V3{X: getF(), Y: getF(), Z: getF()}
		l.Mass[i] = getF()
	}
	return l, nil
}
