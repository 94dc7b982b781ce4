package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// preamble is the 12 bytes a dialing rank writes first.
func preamble(magic, from, to uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = binary.LittleEndian.AppendUint32(b, from)
	return binary.LittleEndian.AppendUint32(b, to)
}

func TestReadPreamble(t *testing.T) {
	w := newWorldShell(4)
	w.mail[2] = newMailbox() // this process hosts rank 2 only
	for _, c := range []struct {
		name string
		in   []byte
		want error
	}{
		{"ok", preamble(sockMagic, 3, 2), nil},
		{"bad magic", preamble(0x424d5030, 3, 2), ErrBadMagic},
		{"sender outside the world", preamble(sockMagic, 4, 2), ErrPreambleRanks},
		{"negative sender", preamble(sockMagic, 0xffffffff, 2), ErrPreambleRanks},
		{"receiver not hosted", preamble(sockMagic, 3, 1), ErrPreambleRanks},
		{"empty", nil, io.EOF},
		{"cut", preamble(sockMagic, 3, 2)[:7], io.ErrUnexpectedEOF},
	} {
		from, to, err := readPreamble(bytes.NewReader(c.in), w)
		if !errors.Is(err, c.want) || (c.want == nil && (from != 3 || to != 2)) {
			t.Errorf("%s: (%d, %d, %v), want error %v", c.name, from, to, err, c.want)
		}
	}
}

// TestReadFrameRoundTrips: every payload kind the codec carries comes back
// from readFrame as the tag and value encodeFrame framed.
func TestReadFrameRoundTrips(t *testing.T) {
	for i, v := range codecValues() {
		frame, kind := encodeFrame(-i, v)
		tag, k, got, err := readFrame(bytes.NewReader(frame))
		if err != nil || tag != int64(-i) || k != kind || !payloadEqual(got, v) {
			t.Errorf("%T: (%d, %d, %#v, %v), want (%d, %d, %#v)", v, tag, k, got, err, -i, kind, v)
		}
	}
	unknown := binary.LittleEndian.AppendUint32(nil, 10)
	unknown = append(unknown, make([]byte, 8)...) // tag
	unknown = append(unknown, 0xff, 0xff)         // kind
	for _, c := range []struct {
		name string
		in   []byte
		want error
	}{
		{"length below the header", []byte{9, 0, 0, 0}, ErrShortFrame},
		{"unknown kind", unknown, ErrUnknownKind},
		{"cut body", []byte{20, 0, 0, 0, 1}, io.ErrUnexpectedEOF},
		{"no body", []byte{20, 0, 0, 0}, io.ErrUnexpectedEOF},
		{"empty", nil, io.EOF},
	} {
		if _, _, _, err := readFrame(bytes.NewReader(c.in)); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// FuzzReadFrame feeds the socket decoder an arbitrary connection stream, the
// way a peer can: the preamble, then frames until the first error, as
// serveConn reads them. Every call must return a value or one of the named
// errors — never panic — and the stream must cost no more than readBody's
// bound (one bodyChunk ahead of the bytes received, doubling after) plus
// what its decoded values hold, a small multiple of the input.
func FuzzReadFrame(f *testing.F) {
	pre := preamble(sockMagic, 1, 0)
	for i, v := range codecValues() {
		frame, _ := encodeFrame(i, v)
		f.Add(append(append([]byte(nil), pre...), frame...))
	}
	f.Add(preamble(0, 1, 0))
	f.Add(append(append([]byte(nil), pre...), 0xf0, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8))
	f.Add(append(append([]byte(nil), pre...), 4, 0, 0, 0, 1, 2, 3, 4))
	w := NewWorld(2)
	named := []error{io.EOF, io.ErrUnexpectedEOF, ErrBadMagic, ErrPreambleRanks, ErrShortFrame, ErrBadPayload}
	isNamed := func(err error) bool {
		for _, e := range named {
			if errors.Is(err, e) {
				return true
			}
		}
		return false
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := bytes.NewReader(b)
		_, _, err := readPreamble(r, w)
		var held uintptr
		for frames := 0; err == nil; frames++ {
			if frames > len(b) {
				t.Fatalf("%d frames out of %d bytes", frames, len(b))
			}
			var v any
			_, _, v, err = readFrame(r)
			held += heapBytes(reflect.ValueOf(v))
		}
		runtime.ReadMemStats(&after)
		if !isNamed(err) {
			t.Fatalf("unnamed error %v", err)
		}
		if limit := uintptr(8*len(b) + 256); held > limit {
			t.Fatalf("%d input bytes decoded to values holding %d", len(b), held)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*bodyChunk+16*len(b)+64<<10); got > limit {
			t.Fatalf("%d input bytes allocated %d", len(b), got)
		}
	})
}
