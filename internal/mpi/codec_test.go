package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/grav"
	"bonsai/internal/keys"
	"bonsai/internal/lettree"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// encodePayload is appendPayload into a fresh slice.
func encodePayload(data any) (uint16, []byte, error) { return appendPayload(nil, data) }

// codecValues holds one value of every payload type the codec carries.
func codecValues() []any {
	let := &lettree.LET{
		Cells: []lettree.Cell{{Side: 0.5, Skip: 1, Kind: octree.ViewLeaf, N: 2}},
		Pos:   []vec.V3{{X: 1}, {Y: 3}},
		Mass:  []float64{2, 4},
	}
	return []any{
		nil, int64(1 << 40), []byte{1, 2, 3}, [][]byte{{9}, nil, {8, 7}},
		[]int{5, -6, 7}, []float64{0.5, -0.25},
		[]keys.Key{1, 2, 3}, [][]keys.Key{{1}, nil, {2, 3}},
		vec.Box{Min: vec.V3{X: -1}, Max: vec.V3{X: 1}},
		[]body.Particle{{Pos: vec.V3{X: 1}, Vel: vec.V3{Y: 2}, Mass: 3, Weight: 4, ID: 5, Rung: 6}, {Mass: 2, ID: 2}},
		let,
	}
}

// removedKinds holds the reserved number of every payload kind the step no
// longer sends, with a payload it once carried.
func removedKinds() []struct {
	kind uint16
	b    []byte
} {
	return []struct {
		kind uint16
		b    []byte
	}{
		{1, []byte{1}},                     // bool
		{2, make([]byte, 8)},               // int
		{4, make([]byte, 8)},               // float64
		{5, []byte("boundary")},            // string
		{8, make([]byte, 16)},              // []int64
		{10, make([]byte, 8)},              // keys.Key
		{13, make([]byte, 24)},             // vec.V3
		{15, make([]byte, body.WireBytes)}, // body.Particle
	}
}

// TestRemovedKindsAreUnknown: a payload type the step does not send has no
// codec, and the kind numbers of removed types stay reserved — a frame that
// still carries one is ErrUnknownKind, never a value.
func TestRemovedKindsAreUnknown(t *testing.T) {
	for _, v := range []any{true, int(-42), 3.14159, "boundary", []int64{1}, keys.Key(1), vec.V3{X: 1}, body.Particle{}} {
		if _, _, err := encodePayload(v); err == nil {
			t.Errorf("%T encoded; it has no wire kind", v)
		}
	}
	for _, r := range removedKinds() {
		if _, err := decodePayload(r.kind, r.b); !errors.Is(err, ErrUnknownKind) {
			t.Errorf("kind %d: err = %v, want ErrUnknownKind", r.kind, err)
		}
	}
}

// TestPayloadBytesExact: payloadBytes sizes every frame, so it must be the
// encoded length exactly — short and the frame regrows, long and it wastes.
func TestPayloadBytesExact(t *testing.T) {
	for _, v := range codecValues() {
		_, b, err := encodePayload(v)
		if err != nil {
			t.Fatal(err)
		}
		if n := payloadBytes(v); n != len(b) {
			t.Errorf("%T: payloadBytes %d, encoded %d bytes", v, n, len(b))
		}
	}
}

// TestLETFrameEncodesOnce: a LET frame is encoded in one allocation, the
// frame itself, and is byte for byte the header followed by LET.Marshal.
func TestLETFrameEncodesOnce(t *testing.T) {
	let := &lettree.LET{
		Cells: make([]lettree.Cell, 3),
		Pos:   []vec.V3{{X: 1}, {Y: 2}, {Z: 3}},
		Mass:  []float64{1, 2, 3},
	}
	let.Cells[0] = lettree.Cell{Skip: 3, MP: grav.Multipole{M: 6}}
	let.Cells[1] = lettree.Cell{Skip: 2, Kind: octree.ViewLeaf, N: 2}
	let.Cells[2] = lettree.Cell{Skip: 3, Kind: octree.ViewLeaf, Start: 2, N: 1}
	if n := testing.AllocsPerRun(50, func() { encodeFrame(7, let) }); n != 1 {
		t.Errorf("a LET frame took %v allocations, want 1", n)
	}
	want := binary.LittleEndian.AppendUint32(nil, uint32(8+2+let.WireBytes()))
	want = binary.LittleEndian.AppendUint64(want, 7)
	want = binary.LittleEndian.AppendUint16(want, kLET)
	want = append(want, let.Marshal()...)
	if got, _ := encodeFrame(7, let); !bytes.Equal(got, want) {
		t.Errorf("LET frame differs from header + Marshal (%d vs %d bytes)", len(got), len(want))
	}
}

// TestDecodeRejectsOversizedSliceCount: the element count that leads a
// [][]key or [][]byte payload is four untrusted bytes, and the decoder sizes a
// block from it. A count the remaining bytes cannot hold is ErrSliceCount,
// not a multi-gigabyte make.
func TestDecodeRejectsOversizedSliceCount(t *testing.T) {
	for _, kind := range []uint16{kKeySlices, kByteSlices} {
		for _, b := range [][]byte{{0xff, 0xff, 0xff, 0x0f}, {0xff, 0xff, 0xff, 0xff}, {2, 0, 0, 0, 0, 0, 0, 0}} {
			if _, err := decodePayload(kind, b); !errors.Is(err, ErrSliceCount) {
				t.Errorf("kind %d, payload %x: err = %v, want ErrSliceCount", kind, b, err)
			}
		}
	}
}

// heapBytes is the heap a decoded value holds: the backing arrays of every
// slice (by capacity) and string reachable from v, and whatever its pointers
// point at.
func heapBytes(v reflect.Value) uintptr {
	var n uintptr
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			n = v.Elem().Type().Size() + heapBytes(v.Elem())
		}
	case reflect.String:
		n = uintptr(v.Len())
	case reflect.Slice:
		n = uintptr(v.Cap()) * v.Type().Elem().Size()
		if k := v.Type().Elem().Kind(); k == reflect.Slice || k == reflect.Pointer {
			for i := 0; i < v.Len(); i++ {
				n += heapBytes(v.Index(i))
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += heapBytes(v.Field(i))
		}
	}
	return n
}

// FuzzDecodePayload feeds decodePayload arbitrary (kind, bytes) frames, the
// way a socket peer can: it must return a value or an error — never panic —
// and a value must not hold more than a small multiple of the payload,
// whatever counts the bytes claim. (A count that sizes a block and then fails
// is TestDecodeRejectsOversizedSliceCount's: the error comes before the make.)
func FuzzDecodePayload(f *testing.F) {
	for _, v := range codecValues() {
		kind, b, err := encodePayload(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kind, b)
	}
	f.Add(kKeySlices, []byte{0xff, 0xff, 0xff, 0x0f}) // asked for a 6.4 GB block
	f.Add(kByteSlices, []byte{0xff, 0xff, 0xff, 0xff})
	for _, r := range removedKinds() {
		f.Add(r.kind, r.b)
	}
	f.Fuzz(func(t *testing.T, kind uint16, b []byte) {
		v, err := decodePayload(kind, b)
		if err != nil {
			return
		}
		// The widest expansion is a slice header (24 B) per 4-byte element.
		if got, limit := heapBytes(reflect.ValueOf(v)), uintptr(8*len(b)+256); got > limit {
			t.Fatalf("kind %d: %d payload bytes decoded to a value holding %d", kind, len(b), got)
		}
	})
}
