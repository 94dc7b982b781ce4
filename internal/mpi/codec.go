package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"bonsai/internal/body"
	"bonsai/internal/keys"
	"bonsai/internal/lettree"
	"bonsai/internal/vec"
)

// This file is the typed wire codec: the closed set of payload types the
// tree-code actually sends — nil (barriers), int64 (clock probes), []byte and
// [][]byte (telemetry), []int and []float64 (reductions), vec.Box (the global
// bounding box), []keys.Key and [][]keys.Key (Hilbert-key samples and cuts),
// []body.Particle (particle exchanges and gathers) and *lettree.LET (boundary
// trees and LETs) — each
// with an explicit kind tag and a hand-rolled little-endian encoding.
// Decoding returns exactly the concrete Go type that was sent, so the
// generic collectives' type assertions behave identically over the wire and
// in-process. An unsupported payload type panics at Send with the offending
// type name: extend appendPayload (and mirror it in payloadBytes, which
// sizes the frame, and in decodePayload) when the simulation grows a new
// message; TestPayloadBytesExact holds the first two together.
//
// LETs reuse the byte-level format of lettree's AppendWire/Unmarshal, so a LET
// frame's payload length equals LET.WireBytes() exactly — the property the
// PairBytes-vs-declared-bytes consistency check in internal/sim leans on.

// Payload kinds. The numeric values are part of the wire format; append
// only. A kind whose payload type is gone keeps its number reserved
// (decodePayload rejects it as unknown).
const (
	kNil uint16 = iota
	_           // reserved: was bool
	_           // reserved: was int
	kInt64
	_ // reserved: was float64
	_ // reserved: was string
	kBytes
	kInts
	_ // reserved: was []int64
	kFloat64s
	_ // reserved: was a single keys.Key
	kKeys
	kKeySlices
	_ // reserved: was vec.V3
	kBox
	_ // reserved: was a single body.Particle
	kParticles
	kLET
	_ // reserved: was []*lettree.LET, the allgathered boundary trees
	kByteSlices
	_ // reserved: was the coarse global tree's per-rank contribution
)

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendV3(b []byte, v vec.V3) []byte {
	b = appendF64(b, v.X)
	b = appendF64(b, v.Y)
	return appendF64(b, v.Z)
}

func appendParticle(b []byte, p *body.Particle) []byte {
	b = appendV3(b, p.Pos)
	b = appendV3(b, p.Vel)
	b = appendF64(b, p.Mass)
	b = appendF64(b, p.Weight)
	b = appendU64(b, uint64(p.ID))
	return append(b, p.Rung)
}

// appendPayload appends data's encoding to b and returns its kind tag. A b
// with payloadBytes(data) bytes of spare capacity is not grown: the socket
// transport encodes every payload straight after its frame header.
func appendPayload(b []byte, data any) (uint16, []byte, error) {
	switch v := data.(type) {
	case nil:
		return kNil, b, nil
	case int64:
		return kInt64, appendU64(b, uint64(v)), nil
	case []byte:
		return kBytes, append(b, v...), nil
	case []int:
		for _, x := range v {
			b = appendU64(b, uint64(x))
		}
		return kInts, b, nil
	case []float64:
		for _, x := range v {
			b = appendF64(b, x)
		}
		return kFloat64s, b, nil
	case []keys.Key:
		return kKeys, appendKeys(b, v), nil
	case [][]keys.Key:
		b = appendU32(b, uint32(len(v)))
		for _, ks := range v {
			b = appendU32(b, uint32(len(ks)))
			b = appendKeys(b, ks)
		}
		return kKeySlices, b, nil
	case vec.Box:
		return kBox, appendV3(appendV3(b, v.Min), v.Max), nil
	case []body.Particle:
		for i := range v {
			b = appendParticle(b, &v[i])
		}
		return kParticles, b, nil
	case [][]byte:
		b = appendU32(b, uint32(len(v)))
		for _, s := range v {
			b = appendU32(b, uint32(len(s)))
			b = append(b, s...)
		}
		return kByteSlices, b, nil
	case *lettree.LET:
		return kLET, v.AppendWire(b), nil
	default:
		return 0, b, fmt.Errorf("mpi: no wire codec for payload type %T", data)
	}
}

// payloadBytes is the length appendPayload appends for data, exactly; 0 for
// a type it rejects.
func payloadBytes(data any) int {
	switch v := data.(type) {
	case int64:
		return 8
	case []byte:
		return len(v)
	case []int:
		return 8 * len(v)
	case []float64:
		return 8 * len(v)
	case []keys.Key:
		return 8 * len(v)
	case [][]keys.Key:
		n := 4
		for _, ks := range v {
			n += 4 + 8*len(ks)
		}
		return n
	case vec.Box:
		return 6 * 8
	case []body.Particle:
		return body.WireBytes * len(v)
	case [][]byte:
		n := 4
		for _, s := range v {
			n += 4 + len(s)
		}
		return n
	case *lettree.LET:
		return v.WireBytes()
	}
	return 0
}

func appendKeys(b []byte, ks []keys.Key) []byte {
	for _, k := range ks {
		b = appendU64(b, uint64(k))
	}
	return b
}

func getU32(b []byte, off *int) uint32 {
	v := binary.LittleEndian.Uint32(b[*off:])
	*off += 4
	return v
}

func getU64(b []byte, off *int) uint64 {
	v := binary.LittleEndian.Uint64(b[*off:])
	*off += 8
	return v
}

func getF64(b []byte, off *int) float64 { return math.Float64frombits(getU64(b, off)) }

func getV3(b []byte, off *int) vec.V3 {
	return vec.V3{X: getF64(b, off), Y: getF64(b, off), Z: getF64(b, off)}
}

func getParticle(b []byte, off *int) body.Particle {
	var p body.Particle
	p.Pos = getV3(b, off)
	p.Vel = getV3(b, off)
	p.Mass = getF64(b, off)
	p.Weight = getF64(b, off)
	p.ID = int64(getU64(b, off))
	p.Rung = b[*off]
	*off++
	return p
}

// ErrUnknownKind is returned (wrapped) for a kind tag the codec does not
// carry, reserved numbers of removed kinds included.
var ErrUnknownKind = errors.New("mpi: unknown payload kind")

// ErrSliceCount is returned (wrapped) for a slice-of-slices payload whose
// leading element count cannot fit in the bytes that follow it.
var ErrSliceCount = errors.New("mpi: slice count exceeds payload")

// sliceCount reads the element count that leads a [][]T payload and bounds it
// by the bytes that remain: every element carries at least its own 4-byte
// length, so a larger count is a lie, and the caller sizes a block from it.
func sliceCount(b []byte, off *int) (int, error) {
	n := getU32(b, off)
	if uint64(n) > uint64(len(b)-*off)/4 {
		return 0, fmt.Errorf("%w: %d elements in %d bytes", ErrSliceCount, n, len(b)-*off)
	}
	return int(n), nil
}

// decodePayload reconstructs the value encoded by appendPayload. The
// returned value has exactly the concrete type that was passed to Send.
func decodePayload(kind uint16, b []byte) (any, error) {
	switch kind {
	case kNil:
		return nil, nil
	case kInt64:
		if len(b) != 8 {
			return nil, fmt.Errorf("mpi: int64 payload of %d bytes", len(b))
		}
		return int64(binary.LittleEndian.Uint64(b)), nil
	case kBytes:
		out := make([]byte, len(b))
		copy(out, b)
		return out, nil
	case kInts:
		if len(b)%8 != 0 {
			return nil, fmt.Errorf("mpi: []int payload of %d bytes", len(b))
		}
		out := make([]int, len(b)/8)
		off := 0
		for i := range out {
			out[i] = int(int64(getU64(b, &off)))
		}
		return out, nil
	case kFloat64s:
		if len(b)%8 != 0 {
			return nil, fmt.Errorf("mpi: []float64 payload of %d bytes", len(b))
		}
		out := make([]float64, len(b)/8)
		off := 0
		for i := range out {
			out[i] = getF64(b, &off)
		}
		return out, nil
	case kKeys:
		if len(b)%8 != 0 {
			return nil, fmt.Errorf("mpi: []key payload of %d bytes", len(b))
		}
		out := make([]keys.Key, len(b)/8)
		off := 0
		for i := range out {
			out[i] = keys.Key(getU64(b, &off))
		}
		return out, nil
	case kKeySlices:
		off := 0
		if len(b) < 4 {
			return nil, fmt.Errorf("mpi: short [][]key payload")
		}
		n, err := sliceCount(b, &off)
		if err != nil {
			return nil, err
		}
		out := make([][]keys.Key, n)
		for i := range out {
			if len(b)-off < 4 {
				return nil, fmt.Errorf("mpi: truncated [][]key payload")
			}
			m := int(getU32(b, &off))
			if len(b)-off < 8*m {
				return nil, fmt.Errorf("mpi: truncated [][]key payload")
			}
			ks := make([]keys.Key, m)
			for j := range ks {
				ks[j] = keys.Key(getU64(b, &off))
			}
			out[i] = ks
		}
		return out, nil
	case kBox:
		if len(b) != 6*8 {
			return nil, fmt.Errorf("mpi: box payload of %d bytes", len(b))
		}
		off := 0
		return vec.Box{Min: getV3(b, &off), Max: getV3(b, &off)}, nil
	case kParticles:
		if len(b)%body.WireBytes != 0 {
			return nil, fmt.Errorf("mpi: []particle payload of %d bytes", len(b))
		}
		out := make([]body.Particle, len(b)/body.WireBytes)
		off := 0
		for i := range out {
			out[i] = getParticle(b, &off)
		}
		return out, nil
	case kByteSlices:
		off := 0
		if len(b) < 4 {
			return nil, fmt.Errorf("mpi: short [][]byte payload")
		}
		n, err := sliceCount(b, &off)
		if err != nil {
			return nil, err
		}
		out := make([][]byte, n)
		for i := range out {
			if len(b)-off < 4 {
				return nil, fmt.Errorf("mpi: truncated [][]byte payload")
			}
			m := int(getU32(b, &off))
			if len(b)-off < m {
				return nil, fmt.Errorf("mpi: truncated [][]byte payload")
			}
			out[i] = append([]byte(nil), b[off:off+m]...)
			off += m
		}
		return out, nil
	case kLET:
		return lettree.Unmarshal(b)
	default:
		return nil, fmt.Errorf("%w %d", ErrUnknownKind, kind)
	}
}
