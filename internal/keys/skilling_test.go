package keys

import (
	"math/rand"
	"testing"
)

// TestHilbertMatchesSkilling holds the table-driven encoder to the
// bit-serial reference below: random coordinates (including bits above
// the 21 the key reads, which both must ignore), the corners, every
// single-bit coordinate at each level, and exhaustive 16³ cubes at the
// origin and at the far corner.
func TestHilbertMatchesSkilling(t *testing.T) {
	t.Logf("%d reachable encoder states", len(hilbertTable)/64)
	check := func(x, y, z uint32) {
		t.Helper()
		if got, want := Hilbert(x, y, z), skillingHilbert(x, y, z); got != want {
			t.Fatalf("Hilbert(%d,%d,%d) = %#x, Skilling gives %#x", x, y, z, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<20; i++ {
		check(rng.Uint32(), rng.Uint32(), rng.Uint32())
	}
	for c := 0; c < 8; c++ {
		check(uint32(c>>2&1)*MaxCoord, uint32(c>>1&1)*MaxCoord, uint32(c&1)*MaxCoord)
	}
	for b := 0; b < Bits; b++ {
		v := uint32(1) << b
		check(v, 0, 0)
		check(0, v, 0)
		check(0, 0, v)
		check(v, v, v)
	}
	for _, base := range []uint32{0, MaxCoord - 15} {
		for x := base; x < base+16; x++ {
			for y := base; y < base+16; y++ {
				for z := base; z < base+16; z++ {
					check(x, y, z)
				}
			}
		}
	}
}

// Skilling's transpose algorithm for the 3-D Hilbert curve ("Programming the
// Hilbert curve", AIP Conf. Proc. 707, 2004): the bit-serial reference the
// table-driven Hilbert encoder must match bit for bit, and the decoder the
// curve's property tests read keys back through.

// skillingHilbert is the reference encoder.
func skillingHilbert(x, y, z uint32) Key {
	ax := [3]uint32{x, y, z}
	axesToTranspose(&ax)
	return interleaveTranspose(ax)
}

// HilbertDecode recovers lattice coordinates from a Peano–Hilbert key.
func HilbertDecode(k Key) (x, y, z uint32) {
	ax := deinterleaveTranspose(k)
	transposeToAxes(&ax)
	return ax[0], ax[1], ax[2]
}

// axesToTranspose converts coordinates in place into Skilling's "transpose"
// representation of the Hilbert index.
func axesToTranspose(x *[3]uint32) {
	const n = 3
	m := uint32(1) << (Bits - 1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert
			} else {
				t := (x[0] ^ x[i]) & p // exchange
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	t := uint32(0)
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes is the inverse of axesToTranspose.
func transposeToAxes(x *[3]uint32) {
	const n = 3
	bound := uint32(2) << (Bits - 1)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != bound; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// interleaveTranspose packs the transpose representation into a single key:
// bit (Bits-1-b) of x[i] becomes bit 3*(Bits-1-b)+(2-i) of the key, i.e. the
// key reads x[0] x[1] x[2] from the most significant position down.
func interleaveTranspose(x [3]uint32) Key {
	var k uint64
	for b := Bits - 1; b >= 0; b-- {
		k = k<<1 | uint64(x[0]>>uint(b))&1
		k = k<<1 | uint64(x[1]>>uint(b))&1
		k = k<<1 | uint64(x[2]>>uint(b))&1
	}
	return Key(k)
}

// deinterleaveTranspose is the inverse of interleaveTranspose.
func deinterleaveTranspose(k Key) [3]uint32 {
	var x [3]uint32
	v := uint64(k)
	for b := 0; b < Bits; b++ {
		x[2] |= uint32(v&1) << uint(b)
		v >>= 1
		x[1] |= uint32(v&1) << uint(b)
		v >>= 1
		x[0] |= uint32(v&1) << uint(b)
		v >>= 1
	}
	return x
}
