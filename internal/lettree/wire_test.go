package lettree

import (
	"encoding/binary"
	"errors"
	"testing"

	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

func TestWireRoundTrip(t *testing.T) {
	pos, mass := blob(5000, vec.V3{X: 1}, 1, 21)
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	lb := boxOf(pos)
	for _, l := range []*LET{
		BoundaryTree(tr, 4, lb),
		BuildFor(tr, vec.Box{Min: vec.V3{X: 4}, Max: vec.V3{X: 6, Y: 1, Z: 1}}, 0.4, lb),
		BuildFor(tr, lb, 0.4, lb), // self-overlapping: particle-heavy
	} {
		buf := l.Marshal()
		if len(buf) != l.WireBytes() {
			t.Fatalf("encoded %d bytes, WireBytes says %d", len(buf), l.WireBytes())
		}
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Cells) != len(l.Cells) || len(got.Pos) != len(l.Pos) {
			t.Fatalf("size mismatch: %d/%d cells, %d/%d parts",
				len(got.Cells), len(l.Cells), len(got.Pos), len(l.Pos))
		}
		if got.Box != l.Box {
			t.Fatal("box mismatch")
		}
		for i := range l.Cells {
			if got.Cells[i] != l.Cells[i] {
				t.Fatalf("cell %d mismatch:\n got %+v\nwant %+v", i, got.Cells[i], l.Cells[i])
			}
		}
		for i := range l.Pos {
			if got.Pos[i] != l.Pos[i] || got.Mass[i] != l.Mass[i] {
				t.Fatalf("part %d mismatch", i)
			}
		}
	}
}

func TestWireRoundTripWalkEquivalence(t *testing.T) {
	// Forces from a decoded LET must be bitwise identical to the original's.
	posB, massB := blob(4000, vec.V3{X: 3}, 0.8, 22)
	trB, _ := octree.BuildFrom(posB, massB, 16, 2)
	tpos, _ := blob(500, vec.V3{X: -3}, 0.5, 23)
	let := BuildFor(trB, boxOf(tpos), 0.4, boxOf(posB))

	decoded, err := Unmarshal(let.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	groups := octree.GroupsOf(tpos, 64)
	a1 := make([]vec.V3, len(tpos))
	p1 := make([]float64, len(tpos))
	Walk(let, groups, tpos, 0.4, 1e-4, a1, p1, 1, nil)
	a2 := make([]vec.V3, len(tpos))
	p2 := make([]float64, len(tpos))
	Walk(decoded, groups, tpos, 0.4, 1e-4, a2, p2, 1, nil)
	for i := range a1 {
		if a1[i] != a2[i] || p1[i] != p2[i] {
			t.Fatalf("decoded LET walk differs at %d", i)
		}
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	pos, mass := blob(1000, vec.V3{}, 1, 24)
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	l := BoundaryTree(tr, 4, boxOf(pos))
	buf := l.Marshal()

	if _, err := Unmarshal(buf[:8]); err == nil {
		t.Error("short buffer accepted")
	}
	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xff
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Unmarshal(buf[:len(buf)-10]); err == nil {
		t.Error("truncated buffer accepted")
	}
	// Corrupt a child index to an out-of-range value on an internal cell.
	if len(l.Cells) > 1 && !l.Cells[0].Leaf {
		bad2 := append([]byte(nil), buf...)
		childOff := headerWireBytes + 12*8 // first cell's child slots
		bad2[childOff] = 0xff
		bad2[childOff+1] = 0xff
		bad2[childOff+2] = 0xff
		bad2[childOff+3] = 0x7f // huge positive
		if _, err := Unmarshal(bad2); err == nil {
			t.Error("out-of-range child accepted")
		}
	}
}

func TestWireEmptyLET(t *testing.T) {
	var l LET
	got, err := Unmarshal(l.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() {
		t.Error("empty LET round trip not empty")
	}
}

// childSlotOff is the frame offset of child slot k of cell i.
func childSlotOff(i, k int) int { return headerWireBytes + i*cellWireBytes + 12*8 + 4*k }

// relink returns a copy of frame with child slot k of cell i set to v.
func relink(frame []byte, i, k int, v int32) []byte {
	bad := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(bad[childSlotOff(i, k):], uint32(v))
	return bad
}

func TestUnmarshalRejectsNonPreorderLinks(t *testing.T) {
	// Before the preorder check, any in-range child index was accepted, and a
	// cell linking to itself or to an ancestor made Walk and Sufficient spin
	// forever on the decoded tree.
	pos, mass := blob(2000, vec.V3{}, 1, 25)
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	l := BoundaryTree(tr, 3, boxOf(pos))
	frame := l.Marshal()

	// The root's first two present children, and the first grandchild.
	var slots []int
	for k := 0; k < 8 && len(slots) < 2; k++ {
		if int32(binary.LittleEndian.Uint32(frame[childSlotOff(0, k):])) != NilCell {
			slots = append(slots, k)
		}
	}
	if len(slots) < 2 || l.Cells[1].Leaf {
		t.Fatal("test tree too small: need a root with two children and a grandchild")
	}
	second := l.Cells[1].Skip // the root's second child
	grandSlot := int(l.Cells[2].Oct)

	for name, bad := range map[string][]byte{
		"self link":        relink(frame, 0, slots[0], 0),
		"ancestor link":    relink(frame, 1, grandSlot, 0),
		"link skips ahead": relink(frame, 0, slots[0], second),
		"link points back": relink(frame, 0, slots[1], 1),
		"unreachable cell": relink(frame, 0, slots[1], NilCell),
		"link past end":    relink(frame, 0, slots[1], int32(len(l.Cells))),
		"negative link":    relink(frame, 0, slots[0], -7),
	} {
		if _, err := Unmarshal(bad); !errors.Is(err, ErrNotPreorder) {
			t.Errorf("%s: got %v, want ErrNotPreorder", name, err)
		}
	}
}

// FuzzLETUnmarshal feeds Unmarshal truncated, bit-flipped and relinked
// frames: it must return an error or a tree every walk terminates on, and
// never panic, hang, or allocate more than the frame's own size accounts for.
func FuzzLETUnmarshal(f *testing.F) {
	pos, mass := blob(60, vec.V3{}, 1, 26) // frames of a few kB keep the mutator fast
	tr, _ := octree.BuildFrom(pos, mass, 4, 1)
	lb := boxOf(pos)
	near := vec.Box{Min: vec.V3{X: 1, Y: -1, Z: -1}, Max: vec.V3{X: 3, Y: 1, Z: 1}}
	for _, l := range []*LET{{}, BoundaryTree(tr, 2, lb), BuildFor(tr, near, 0.5, lb)} {
		frame := l.Marshal()
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		if len(l.Cells) > 2 {
			f.Add(relink(frame, 0, int(l.Cells[1].Oct), 0)) // cycle through the root
			f.Add(relink(frame, 1, 0, 1))
			flipped := append([]byte(nil), frame...)
			flipped[headerWireBytes+cellWireBytes-2] ^= 3 // the root's leaf/openable flags
			f.Add(flipped)
			huge := append([]byte(nil), frame...)
			binary.LittleEndian.PutUint32(huge[4:], 1<<31) // claims 2³¹ cells
			f.Add(huge)
		}
	}
	tpos := []vec.V3{{X: 2}, {X: 2.1, Y: 0.1}, {X: 1.9, Z: -0.2}}
	groups := octree.GroupsOf(tpos, 64)
	f.Fuzz(func(t *testing.T, frame []byte) {
		l, err := Unmarshal(frame)
		if err != nil {
			return
		}
		if l.WireBytes() > len(frame) {
			t.Fatalf("decoded %d cells and %d particles from %d bytes", len(l.Cells), len(l.Pos), len(frame))
		}
		for i := range l.Cells {
			if s := l.Cells[i].Skip; s <= int32(i) || int(s) > len(l.Cells) {
				t.Fatalf("cell %d of %d: Skip %d", i, len(l.Cells), s)
			}
		}
		// Terminates and stays in bounds, whatever the moments hold.
		acc := make([]vec.V3, len(tpos))
		pot := make([]float64, len(tpos))
		Walk(l, groups, tpos, 0.5, 1e-4, acc, pot, 1, nil)
		Sufficient(l, near, 0.5)
		if again, err := Unmarshal(l.Marshal()); err != nil || len(again.Cells) != len(l.Cells) {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
	})
}
