package mpi

import (
	"errors"
	"reflect"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/keys"
	"bonsai/internal/lettree"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

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
	let := &lettree.LET{
		Cells: []lettree.Cell{{Side: 0.5, Skip: 1, Kind: octree.ViewLeaf, N: 2}},
		Pos:   []vec.V3{{X: 1}, {Y: 3}},
		Mass:  []float64{2, 4},
	}
	for _, v := range []any{
		nil, true, int(-42), int64(1 << 40), 3.14159, "boundary", []byte{1, 2, 3},
		[]int{5, -6, 7}, []int64{1 << 50}, []float64{0.5, -0.25},
		keys.Key(1 << 62), []keys.Key{1, 2, 3}, [][]keys.Key{{1}, nil, {2, 3}},
		vec.V3{X: 1, Y: 2, Z: 3}, vec.Box{Min: vec.V3{X: -1}, Max: vec.V3{X: 1}},
		body.Particle{Mass: 3, ID: 5, Rung: 6}, []body.Particle{{Mass: 1, ID: 1}, {Mass: 2, ID: 2}},
		let, [][]byte{{9}, nil, {8, 7}},
	} {
		kind, b, err := encodePayload(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kind, b)
	}
	f.Add(kKeySlices, []byte{0xff, 0xff, 0xff, 0x0f}) // asked for a 6.4 GB block
	f.Add(kByteSlices, []byte{0xff, 0xff, 0xff, 0xff})
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
