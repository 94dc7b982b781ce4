package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"unsafe"

	"bonsai/internal/body"
	"bonsai/internal/ic"
)

func TestRoundTrip(t *testing.T) {
	parts := ic.Plummer(1000, 2.5, 1.2, 1, 42)
	h := Header{Time: 3.25, Step: 17}
	var buf bytes.Buffer
	if err := Write(&buf, h, parts); err != nil {
		t.Fatal(err)
	}
	gh, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gh != h {
		t.Fatalf("header %+v != %+v", gh, h)
	}
	if len(got) != len(parts) {
		t.Fatalf("count %d != %d", len(got), len(parts))
	}
	for i := range parts {
		// Weight is intentionally not persisted.
		want := parts[i]
		want.Weight = 0
		if got[i] != want {
			t.Fatalf("particle %d: %+v != %+v", i, got[i], want)
		}
	}
}

func TestRoundTripRungsAndSubstep(t *testing.T) {
	// Block-timestep state: per-particle rungs and the substep barrier index
	// must survive the v2 format exactly — a snapshot at a mid-step barrier
	// is only restartable if every particle's half-finished leapfrog step can
	// be closed with the right dt.
	parts := ic.Plummer(300, 1, 1, 1, 43)
	for i := range parts {
		parts[i].Rung = uint8(i % 7)
	}
	h := Header{Time: 1.5, Step: 12, Substep: 5}
	var buf bytes.Buffer
	if err := Write(&buf, h, parts); err != nil {
		t.Fatal(err)
	}
	gh, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gh != h {
		t.Fatalf("header %+v != %+v (substep lost?)", gh, h)
	}
	for i := range parts {
		if got[i].Rung != parts[i].Rung {
			t.Fatalf("particle %d: rung %d != %d", i, got[i].Rung, parts[i].Rung)
		}
	}
}

// v1Stream is a v1 file (no substep field, 64-byte records without the rung
// byte) holding two particles at time 2.5, step 9.
func v1Stream() *bytes.Buffer {
	var buf bytes.Buffer
	buf.WriteString("BONSAI1\n")
	le := binary.LittleEndian
	var w [8]byte
	le.PutUint64(w[:], math.Float64bits(2.5)) // time
	buf.Write(w[:])
	le.PutUint64(w[:], 9) // step
	buf.Write(w[:])
	le.PutUint64(w[:], 2) // n
	buf.Write(w[:])
	for id := int64(0); id < 2; id++ {
		rec := make([]byte, 8*8)
		le.PutUint64(rec[0:], uint64(id))
		le.PutUint64(rec[8:], math.Float64bits(0.5))
		le.PutUint64(rec[16:], math.Float64bits(float64(id)+0.25))
		buf.Write(rec)
	}
	return &buf
}

func TestReadV1Compat(t *testing.T) {
	// A v1 stream must still load: substep 0, every particle on rung 0.
	h, parts, err := Read(v1Stream())
	if err != nil {
		t.Fatal(err)
	}
	if h.Time != 2.5 || h.Step != 9 || h.Substep != 0 {
		t.Fatalf("v1 header mishandled: %+v", h)
	}
	if len(parts) != 2 || parts[0].Rung != 0 || parts[1].Rung != 0 {
		t.Fatalf("v1 particles mishandled: %+v", parts)
	}
	if parts[1].Pos.X != 1.25 || parts[1].Mass != 0.5 {
		t.Fatalf("v1 record layout misread: %+v", parts[1])
	}
}

func TestRoundTripSpecialValues(t *testing.T) {
	f := func(id int64, m, x, y, z float64) bool {
		p := []body.Particle{{ID: id, Mass: m}}
		p[0].Pos.X, p[0].Pos.Y, p[0].Pos.Z = x, y, z
		var buf bytes.Buffer
		if err := Write(&buf, Header{}, p); err != nil {
			return false
		}
		_, got, err := Read(&buf)
		if err != nil {
			return false
		}
		eq := func(a, b float64) bool {
			return a == b || (math.IsNaN(a) && math.IsNaN(b))
		}
		return got[0].ID == id && eq(got[0].Mass, m) &&
			eq(got[0].Pos.X, x) && eq(got[0].Pos.Y, y) && eq(got[0].Pos.Z, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	parts := ic.Plummer(500, 1, 1, 1, 7)
	if err := Save(path, Header{Time: 1, Step: 2}, parts); err != nil {
		t.Fatal(err)
	}
	h, got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Step != 2 || len(got) != 500 {
		t.Fatalf("loaded %d particles, header %+v", len(got), h)
	}
}

func TestBadMagic(t *testing.T) {
	if _, _, err := Read(bytes.NewReader([]byte("NOTASNAP plus more data"))); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestTruncatedStream(t *testing.T) {
	parts := ic.Plummer(100, 1, 1, 1, 8)
	var buf bytes.Buffer
	if err := Write(&buf, Header{}, parts); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 4, 20, 30, 40, len(full) - 5} {
		if _, _, err := Read(bytes.NewReader(full[:cut])); !errors.Is(err, ErrTruncated) {
			t.Errorf("stream cut at %d: got %v, want ErrTruncated", cut, err)
		}
	}
}

// FuzzSnapshotRead feeds Read arbitrary bytes, the way a damaged checkpoint
// can: it must return a value or an error — never panic — and the particles
// it returns must not hold more than a small multiple of the input, whatever
// count the header claims. The committed reproducer under testdata/fuzz is a
// 40-byte v2 header declaring 1<<62 particles.
func FuzzSnapshotRead(f *testing.F) {
	f.Add(v1Stream().Bytes())
	var v2 bytes.Buffer
	if err := Write(&v2, Header{Time: 1.5, Step: 3, Substep: 2}, ic.Plummer(5, 1, 1, 1, 9)); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		_, parts, err := Read(bytes.NewReader(b))
		if err != nil {
			if parts != nil {
				t.Fatalf("error %v came with %d particles", err, len(parts))
			}
			return
		}
		// A record is 64 bytes on the wire and 80 in memory, in a slice that
		// at most doubles: 2.5x, plus the first block of 64.
		const partSize = int(unsafe.Sizeof(body.Particle{}))
		if got, limit := cap(parts)*partSize, 3*len(b)+64*partSize; got > limit {
			t.Fatalf("%d input bytes decoded to particles holding %d", len(b), got)
		}
	})
}

func TestEmptySnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Header{Time: 5}, nil); err != nil {
		t.Fatal(err)
	}
	h, parts, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Time != 5 || len(parts) != 0 {
		t.Fatal("empty snapshot mishandled")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, _, err := Load(filepath.Join(os.TempDir(), "definitely-not-here-12345.bin")); err == nil {
		t.Fatal("expected error")
	}
}

func BenchmarkWriteRead100k(b *testing.B) {
	parts := ic.Plummer(100_000, 1, 1, 1, 1)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Write(&buf, Header{}, parts); err != nil {
			b.Fatal(err)
		}
		if _, _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
