// Package snapshot stores and restores simulation state as a compact binary
// stream. The paper stores intermediate snapshots "for the dual purpose of
// restarting and detailed analysis" (§VI.C); this package provides the same
// facility for the reproduction's runs.
//
// Format v2 (little-endian):
//
//	magic   [8]byte  "BONSAI2\n"
//	time    float64
//	step    int64
//	substep int64    always 0
//	n       int64
//	n × { id int64, mass float64, pos [3]float64, vel [3]float64, rung byte }
//
// The rung byte carries each particle's block-timestep level, so a restarted
// run keeps its hierarchy. Snapshots are taken at top-of-step barriers only:
// the substep field is written as 0 and Read rejects any other value with
// ErrMidStep. Read also accepts the v1 format ("BONSAI1\n", no substep, no
// rungs), which restores all particles on rung 0.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"bonsai/internal/body"
	"bonsai/internal/vec"
)

var (
	magicV1 = [8]byte{'B', 'O', 'N', 'S', 'A', 'I', '1', '\n'}
	magicV2 = [8]byte{'B', 'O', 'N', 'S', 'A', 'I', '2', '\n'}
)

// Header carries the simulation metadata stored alongside the particles.
type Header struct {
	Time float64
	Step int64
}

const (
	recV1 = 8 * 8
	recV2 = 8*8 + 1
)

// Write serializes the particle set to w in the v2 format.
func Write(w io.Writer, h Header, parts []body.Particle) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(magicV2[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, h.Time); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, h.Step); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(0)); err != nil { // substep
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(len(parts))); err != nil {
		return err
	}
	rec := make([]byte, recV2)
	for i := range parts {
		p := &parts[i]
		le := binary.LittleEndian
		le.PutUint64(rec[0:], uint64(p.ID))
		le.PutUint64(rec[8:], fbits(p.Mass))
		le.PutUint64(rec[16:], fbits(p.Pos.X))
		le.PutUint64(rec[24:], fbits(p.Pos.Y))
		le.PutUint64(rec[32:], fbits(p.Pos.Z))
		le.PutUint64(rec[40:], fbits(p.Vel.X))
		le.PutUint64(rec[48:], fbits(p.Vel.Y))
		le.PutUint64(rec[56:], fbits(p.Vel.Z))
		rec[64] = p.Rung
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ErrTruncated reports a snapshot that ends before its header, or before the
// particle count its header declares.
var ErrTruncated = errors.New("snapshot: truncated")

// ErrMidStep reports a v2 snapshot whose substep field is not 0: state taken
// between the barriers of a block-timestep step, which no run resumes.
var ErrMidStep = errors.New("snapshot: taken mid-step (non-zero substep)")

// truncated names an end-of-input error; any other read error passes as is.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}

// Read deserializes a snapshot from r, accepting both the v1 and v2 formats.
// The particle count in the header is not trusted to size anything: the
// result grows as records arrive, so Read never holds more than a small
// multiple of the bytes it has read, and a stream shorter than its header
// claims fails with ErrTruncated.
func Read(r io.Reader) (Header, []body.Particle, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	le := binary.LittleEndian
	var hdr [8 + 4*8]byte // magic, time, step, [substep,] n
	if _, err := io.ReadFull(br, hdr[:8]); err != nil {
		return Header{}, nil, fmt.Errorf("snapshot: reading magic: %w", truncated(err))
	}
	magic := [8]byte(hdr[:8])
	v2 := magic == magicV2
	if !v2 && magic != magicV1 {
		return Header{}, nil, fmt.Errorf("snapshot: bad magic %q", magic)
	}
	fields, size := hdr[8:8+3*8], recV1
	if v2 {
		fields, size = hdr[8:], recV2
	}
	if _, err := io.ReadFull(br, fields); err != nil {
		return Header{}, nil, fmt.Errorf("snapshot: reading header: %w", truncated(err))
	}
	h := Header{Time: bitsf(le.Uint64(fields)), Step: int64(le.Uint64(fields[8:]))}
	if v2 {
		if sub := int64(le.Uint64(fields[16:])); sub != 0 {
			return Header{}, nil, fmt.Errorf("%w: substep %d", ErrMidStep, sub)
		}
	}
	n := int64(le.Uint64(fields[len(fields)-8:]))
	if n < 0 {
		return Header{}, nil, fmt.Errorf("snapshot: negative particle count %d", n)
	}
	var parts []body.Particle
	rec := make([]byte, size)
	for i := int64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return Header{}, nil, fmt.Errorf("snapshot: particle %d of %d: %w", i, n, truncated(err))
		}
		if len(parts) == cap(parts) {
			// Double, but never past the declared count.
			parts = slices.Grow(parts, int(min(max(i, 64), n-i)))
		}
		p := body.Particle{
			ID:   int64(le.Uint64(rec[0:])),
			Mass: bitsf(le.Uint64(rec[8:])),
			Pos:  vec.V3{X: bitsf(le.Uint64(rec[16:])), Y: bitsf(le.Uint64(rec[24:])), Z: bitsf(le.Uint64(rec[32:]))},
			Vel:  vec.V3{X: bitsf(le.Uint64(rec[40:])), Y: bitsf(le.Uint64(rec[48:])), Z: bitsf(le.Uint64(rec[56:]))},
		}
		if v2 {
			p.Rung = rec[64]
		}
		parts = append(parts, p)
	}
	return h, parts, nil
}

// Save writes a snapshot to a file path.
func Save(path string, h Header, parts []body.Particle) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, h, parts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a snapshot from a file path.
func Load(path string) (Header, []body.Particle, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer f.Close()
	return Read(f)
}

func fbits(f float64) uint64 { return math.Float64bits(f) }
func bitsf(u uint64) float64 { return math.Float64frombits(u) }
