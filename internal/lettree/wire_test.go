package lettree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bonsai/internal/grav"
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
	// Corrupt the root's skip to an out-of-range value.
	if len(l.Cells) > 1 {
		if _, err := Unmarshal(reskip(buf, 0, 0x7fffffff)); err == nil {
			t.Error("out-of-range skip accepted")
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

// topoOff is the frame offset of cell i's skip; start, n and kind follow it.
func topoOff(i int) int { return headerWireBytes + i*cellWireBytes + 12*8 }

// reskip returns a copy of frame with cell i's skip set to v.
func reskip(frame []byte, i int, v uint32) []byte {
	bad := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(bad[topoOff(i):], v)
	return bad
}

// rekind returns a copy of frame with cell i's kind byte set to k.
func rekind(frame []byte, i int, k byte) []byte {
	bad := append([]byte(nil), frame...)
	bad[topoOff(i)+12] = k
	return bad
}

// badFrame is one corruption of a valid frame; notPreorder says Unmarshal must
// name it ErrNotPreorder rather than give it an error of its own.
type badFrame struct {
	name        string
	frame       []byte
	notPreorder bool
}

// badFrames returns one corruption per way a LET2 frame can stop being a
// preorder tree over its particles. The LET's root must have two children, the
// first of them inner with at least two cells below it, the first a leaf or
// pruned. The committed corpus under testdata/fuzz/FuzzLETUnmarshal is this
// list over fourCellLET.
func badFrames(t testing.TB, l *LET) []badFrame {
	if len(l.Cells) < 5 || l.Cells[1].Kind != octree.ViewInner || l.Cells[1].Skip == l.Cells[0].Skip ||
		l.Cells[1].Skip < 4 || l.Cells[2].Kind == octree.ViewInner {
		t.Fatal("test tree too small: need a root with two children and two childless grandchildren")
	}
	frame := l.Marshal()
	nCells, second := uint32(len(l.Cells)), uint32(l.Cells[1].Skip)
	parts := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(parts[topoOff(2)+4:], uint32(len(l.Pos))) // start
	binary.LittleEndian.PutUint32(parts[topoOff(2)+8:], 1)                  // n
	return []badFrame{
		{"skip-to-self", reskip(frame, 1, 1), true},
		{"skip-to-ancestor", reskip(frame, 1, 0), true},
		{"skip-past-parents-end", reskip(frame, 2, second+1), true},
		{"skip-past-ncells", reskip(frame, 0, nCells+1), true},
		{"root-stops-short", reskip(frame, 0, second), true},
		{"leaf-with-subtree", reskip(frame, 2, second), true},
		{"inner-without-subtree", reskip(frame, 1, 2), true},
		{"kind-3", rekind(frame, 2, 3), false},
		{"particle-range-out-of-bounds", parts, false},
	}
}

// fourCellLET is the smallest tree badFrames accepts: a root over an inner
// cell with a leaf and a pruned cell below it, and a second leaf.
func fourCellLET() *LET {
	mp := func(m float64) grav.Multipole { return grav.Multipole{M: m, COM: vec.V3{X: 0.5, Y: 0.5, Z: 0.5}} }
	return &LET{
		Cells: []Cell{
			{MP: mp(4), Side: 1, Skip: 5, Kind: octree.ViewInner},
			{MP: mp(3), Side: 0.5, Skip: 4, Kind: octree.ViewInner},
			{MP: mp(1), Side: 0.25, Skip: 3, Kind: octree.ViewLeaf, N: 1},
			{MP: mp(2), Side: 0.25, Skip: 4, Kind: octree.ViewPruned},
			{MP: mp(1), Side: 0.5, Skip: 5, Kind: octree.ViewLeaf, Start: 1, N: 1},
		},
		Pos:  []vec.V3{{X: 0.1, Y: 0.1, Z: 0.1}, {X: 0.9, Y: 0.9, Z: 0.9}},
		Mass: []float64{1, 1},
		Box:  vec.Box{Max: vec.V3{X: 1, Y: 1, Z: 1}},
	}
}

func TestUnmarshalRejectsNonPreorderLinks(t *testing.T) {
	// Walk and Sufficient scan the decoded cells forward by Skip: a skip that
	// points back makes them spin forever, one that leaves its subtree makes
	// them skip mass.
	pos, mass := blob(2000, vec.V3{}, 1, 25)
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	for _, l := range []*LET{BoundaryTree(tr, 3, boxOf(pos)), fourCellLET()} {
		if _, err := Unmarshal(l.Marshal()); err != nil {
			t.Fatalf("uncorrupted frame: %v", err)
		}
		for _, bad := range badFrames(t, l) {
			if _, err := Unmarshal(bad.frame); err == nil || errors.Is(err, ErrNotPreorder) != bad.notPreorder {
				t.Errorf("%s: got %v, want ErrNotPreorder: %v", bad.name, err, bad.notPreorder)
			}
		}
	}
}

// TestFuzzCorpusIsCurrent keeps the committed reproducers in step with the
// frame format: each file must be badFrames' frame of the same name.
func TestFuzzCorpusIsCurrent(t *testing.T) {
	for _, bad := range badFrames(t, fourCellLET()) {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", bad.frame)
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLETUnmarshal", bad.name))
		if err != nil || string(got) != want {
			t.Errorf("%s: stale or missing (%v); rewrite it with:\n%s", bad.name, err, want)
		}
	}
}

// FuzzLETUnmarshal feeds Unmarshal truncated, bit-flipped and re-skipped
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
			f.Add(reskip(frame, 0, 0)) // the root skips to itself
			f.Add(reskip(frame, 1, 0)) // a cycle through the root
			f.Add(rekind(frame, 0, byte(octree.ViewLeaf)))
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
