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
// tree-code actually sends — collective scalars and reductions, Hilbert-key
// sample batches, particle exchanges, boundary trees and LET payloads — each
// with an explicit kind tag and a hand-rolled little-endian encoding.
// Decoding returns exactly the concrete Go type that was sent, so the
// generic collectives' type assertions behave identically over the wire and
// in-process. An unsupported payload type panics at Send with the offending
// type name: extend the switch below (and mirror it in decodePayload) when
// the simulation grows a new message.
//
// LETs reuse the byte-level format of lettree's Marshal/Unmarshal, so a LET
// frame's payload length equals LET.WireBytes() exactly — the property the
// PairBytes-vs-declared-bytes consistency check in internal/sim leans on.

// Payload kinds. The numeric values are part of the wire format; append
// only. A kind whose payload type is gone keeps its number reserved
// (decodePayload rejects it as unknown).
const (
	kNil uint16 = iota
	kBool
	kInt
	kInt64
	kFloat64
	kString
	kBytes
	kInts
	kInt64s
	kFloat64s
	kKey
	kKeys
	kKeySlices
	kV3
	kBox
	kParticle
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

// encodePayload serializes data and returns its kind tag and payload bytes.
func encodePayload(data any) (uint16, []byte, error) {
	switch v := data.(type) {
	case nil:
		return kNil, nil, nil
	case bool:
		b := []byte{0}
		if v {
			b[0] = 1
		}
		return kBool, b, nil
	case int:
		return kInt, appendU64(nil, uint64(v)), nil
	case int64:
		return kInt64, appendU64(nil, uint64(v)), nil
	case float64:
		return kFloat64, appendF64(nil, v), nil
	case string:
		return kString, []byte(v), nil
	case []byte:
		return kBytes, v, nil
	case []int:
		b := make([]byte, 0, 8*len(v))
		for _, x := range v {
			b = appendU64(b, uint64(x))
		}
		return kInts, b, nil
	case []int64:
		b := make([]byte, 0, 8*len(v))
		for _, x := range v {
			b = appendU64(b, uint64(x))
		}
		return kInt64s, b, nil
	case []float64:
		b := make([]byte, 0, 8*len(v))
		for _, x := range v {
			b = appendF64(b, x)
		}
		return kFloat64s, b, nil
	case keys.Key:
		return kKey, appendU64(nil, uint64(v)), nil
	case []keys.Key:
		return kKeys, appendKeys(nil, v), nil
	case [][]keys.Key:
		b := appendU32(nil, uint32(len(v)))
		for _, ks := range v {
			b = appendU32(b, uint32(len(ks)))
			b = appendKeys(b, ks)
		}
		return kKeySlices, b, nil
	case vec.V3:
		return kV3, appendV3(nil, v), nil
	case vec.Box:
		return kBox, appendV3(appendV3(nil, v.Min), v.Max), nil
	case body.Particle:
		return kParticle, appendParticle(nil, &v), nil
	case []body.Particle:
		b := make([]byte, 0, body.WireBytes*len(v))
		for i := range v {
			b = appendParticle(b, &v[i])
		}
		return kParticles, b, nil
	case [][]byte:
		b := appendU32(nil, uint32(len(v)))
		for _, s := range v {
			b = appendU32(b, uint32(len(s)))
			b = append(b, s...)
		}
		return kByteSlices, b, nil
	case *lettree.LET:
		return kLET, v.Marshal(), nil
	default:
		return 0, nil, fmt.Errorf("mpi: no wire codec for payload type %T", data)
	}
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

// decodePayload reconstructs the value encoded by encodePayload. The
// returned value has exactly the concrete type that was passed to Send.
func decodePayload(kind uint16, b []byte) (any, error) {
	switch kind {
	case kNil:
		return nil, nil
	case kBool:
		if len(b) != 1 {
			return nil, fmt.Errorf("mpi: bool payload of %d bytes", len(b))
		}
		return b[0] != 0, nil
	case kInt:
		if len(b) != 8 {
			return nil, fmt.Errorf("mpi: int payload of %d bytes", len(b))
		}
		return int(int64(binary.LittleEndian.Uint64(b))), nil
	case kInt64:
		if len(b) != 8 {
			return nil, fmt.Errorf("mpi: int64 payload of %d bytes", len(b))
		}
		return int64(binary.LittleEndian.Uint64(b)), nil
	case kFloat64:
		if len(b) != 8 {
			return nil, fmt.Errorf("mpi: float64 payload of %d bytes", len(b))
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
	case kString:
		return string(b), nil
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
	case kInt64s:
		if len(b)%8 != 0 {
			return nil, fmt.Errorf("mpi: []int64 payload of %d bytes", len(b))
		}
		out := make([]int64, len(b)/8)
		off := 0
		for i := range out {
			out[i] = int64(getU64(b, &off))
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
	case kKey:
		if len(b) != 8 {
			return nil, fmt.Errorf("mpi: key payload of %d bytes", len(b))
		}
		return keys.Key(binary.LittleEndian.Uint64(b)), nil
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
	case kV3:
		if len(b) != 3*8 {
			return nil, fmt.Errorf("mpi: V3 payload of %d bytes", len(b))
		}
		off := 0
		return getV3(b, &off), nil
	case kBox:
		if len(b) != 6*8 {
			return nil, fmt.Errorf("mpi: box payload of %d bytes", len(b))
		}
		off := 0
		return vec.Box{Min: getV3(b, &off), Max: getV3(b, &off)}, nil
	case kParticle:
		if len(b) != body.WireBytes {
			return nil, fmt.Errorf("mpi: particle payload of %d bytes", len(b))
		}
		off := 0
		return getParticle(b, &off), nil
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
		return nil, fmt.Errorf("mpi: unknown payload kind %d", kind)
	}
}
