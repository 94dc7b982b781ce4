package keys

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bonsai/internal/vec"
)

func TestMortonRoundTrip(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= MaxCoord
		y &= MaxCoord
		z &= MaxCoord
		gx, gy, gz := MortonDecode(Morton(x, y, z))
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMortonKnownValues(t *testing.T) {
	cases := []struct {
		x, y, z uint32
		want    Key
	}{
		{0, 0, 0, 0},
		{0, 0, 1, 1},
		{0, 1, 0, 2},
		{1, 0, 0, 4},
		{1, 1, 1, 7},
		{2, 0, 0, 32}, // second bit of x -> bit 5
	}
	for _, c := range cases {
		if got := Morton(c.x, c.y, c.z); got != c.want {
			t.Errorf("Morton(%d,%d,%d) = %d, want %d", c.x, c.y, c.z, got, c.want)
		}
	}
}

func TestMortonOctantMatchesTopBits(t *testing.T) {
	// The level-0 octant digit must be (x>>20, y>>20, z>>20).
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		x := rng.Uint32() & MaxCoord
		y := rng.Uint32() & MaxCoord
		z := rng.Uint32() & MaxCoord
		k := Morton(x, y, z)
		want := int(x>>20&1)<<2 | int(y>>20&1)<<1 | int(z>>20&1)
		if got := k.Octant(0); got != want {
			t.Fatalf("Octant(0) of Morton(%d,%d,%d) = %d, want %d", x, y, z, got, want)
		}
	}
}

func TestMortonMonotoneAlongZ(t *testing.T) {
	// With fixed x and y, increasing z increases the Morton key.
	prev := Morton(5, 9, 0)
	for z := uint32(1); z < 64; z++ {
		k := Morton(5, 9, z)
		if k <= prev {
			t.Fatalf("Morton not monotone in z at z=%d", z)
		}
		prev = k
	}
}

func TestHilbertRoundTrip(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= MaxCoord
		y &= MaxCoord
		z &= MaxCoord
		gx, gy, gz := HilbertDecode(Hilbert(x, y, z))
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHilbertIsBijectionOnSmallCube(t *testing.T) {
	// Exhaustively verify that an 8x8x8 corner of the lattice maps to 512
	// distinct keys that decode back correctly.
	seen := make(map[Key][3]uint32)
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			for z := uint32(0); z < 8; z++ {
				k := Hilbert(x, y, z)
				if prev, dup := seen[k]; dup {
					t.Fatalf("key collision: (%d,%d,%d) and %v both map to %d", x, y, z, prev, k)
				}
				seen[k] = [3]uint32{x, y, z}
				gx, gy, gz := HilbertDecode(k)
				if gx != x || gy != y || gz != z {
					t.Fatalf("decode(%d) = (%d,%d,%d), want (%d,%d,%d)", k, gx, gy, gz, x, y, z)
				}
			}
		}
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// The defining property of the Hilbert curve: consecutive curve indices
	// map to lattice cells exactly one unit step apart along a single axis.
	// We test runs of consecutive indices starting at random points.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		start := Key(rng.Uint64()) % (MaxKey - 1000)
		px, py, pz := HilbertDecode(start)
		for d := start + 1; d < start+1000; d++ {
			x, y, z := HilbertDecode(d)
			dist := absDiff(x, px) + absDiff(y, py) + absDiff(z, pz)
			if dist != 1 {
				t.Fatalf("indices %d and %d map to cells L1-distance %d apart", d-1, d, dist)
			}
			px, py, pz = x, y, z
		}
	}
}

func TestHilbertStartsAtOrigin(t *testing.T) {
	if k := Hilbert(0, 0, 0); k != 0 {
		t.Fatalf("Hilbert(0,0,0) = %d, want 0", k)
	}
	if x, y, z := HilbertDecode(0); x != 0 || y != 0 || z != 0 {
		t.Fatalf("HilbertDecode(0) = (%d,%d,%d), want origin", x, y, z)
	}
}

func TestHilbertLocalityBeatsMorton(t *testing.T) {
	// For a random walk in space, the average |Δkey| along the Hilbert curve
	// must be far smaller than the lattice volume, and Hilbert locality (max
	// cell-to-cell spatial jump for consecutive keys) is 1 where Morton makes
	// long jumps. Quantified here: count how many consecutive-key pairs in a
	// small cube region are spatially adjacent for both curves.
	const n = 4096 // keys 0..n-1 of each curve restricted to small cube
	hilbertAdj, mortonAdj := 0, 0
	phx, phy, phz := HilbertDecode(0)
	pmx, pmy, pmz := MortonDecode(0)
	for d := Key(1); d < n; d++ {
		hx, hy, hz := HilbertDecode(d)
		if absDiff(hx, phx)+absDiff(hy, phy)+absDiff(hz, phz) == 1 {
			hilbertAdj++
		}
		phx, phy, phz = hx, hy, hz
		mx, my, mz := MortonDecode(d)
		if absDiff(mx, pmx)+absDiff(my, pmy)+absDiff(mz, pmz) == 1 {
			mortonAdj++
		}
		pmx, pmy, pmz = mx, my, mz
	}
	if hilbertAdj != n-1 {
		t.Errorf("hilbert adjacency %d of %d", hilbertAdj, n-1)
	}
	if mortonAdj >= hilbertAdj {
		t.Errorf("morton adjacency %d unexpectedly >= hilbert %d", mortonAdj, hilbertAdj)
	}
}

func TestGridCoordsClampAndCenter(t *testing.T) {
	g := NewGrid(vec.Box{Min: vec.V3{X: -1, Y: -1, Z: -1}, Max: vec.V3{X: 1, Y: 1, Z: 1}})
	// Far outside points clamp to the lattice edges.
	x, y, z := g.Coords(vec.V3{X: -100, Y: 100, Z: 0})
	if x != 0 || y != MaxCoord {
		t.Fatalf("clamping failed: got (%d,%d,%d)", x, y, z)
	}
	// The centre of the box maps near the lattice midpoint.
	cx, cy, cz := g.Coords(vec.V3{})
	mid := uint32(1) << (Bits - 1)
	for _, c := range []uint32{cx, cy, cz} {
		if c < mid-2 || c > mid+2 {
			t.Fatalf("centre maps to %d, want ~%d", c, mid)
		}
	}
}

func TestGridCellBoxContainsPoint(t *testing.T) {
	g := NewGrid(vec.Box{Min: vec.V3{X: -3, Y: 2, Z: 0}, Max: vec.V3{X: 5, Y: 9, Z: 4}})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p := vec.V3{
			X: -3 + 8*rng.Float64(),
			Y: 2 + 7*rng.Float64(),
			Z: 4 * rng.Float64(),
		}
		x, y, z := g.Coords(p)
		for level := 0; level <= Bits; level += 5 {
			b := g.CellBox(x, y, z, level)
			if !b.Contains(p) {
				t.Fatalf("level-%d cell box %+v does not contain %v", level, b, p)
			}
		}
	}
}

func TestGridKeysOrderContiguity(t *testing.T) {
	// Points generated along a smooth curve should produce Hilbert keys whose
	// sorted order visits spatially contiguous chunks: we verify only that
	// identical points give identical keys and nearby points give close grid
	// coords (sanity of the scale computation).
	g := NewGrid(vec.Box{Min: vec.V3{}, Max: vec.V3{X: 1, Y: 1, Z: 1}})
	p := vec.V3{X: 0.3, Y: 0.7, Z: 0.11}
	if g.HilbertOf(p) != g.HilbertOf(p) {
		t.Fatal("HilbertOf not deterministic")
	}
	if g.MortonOf(p) != g.MortonOf(p) {
		t.Fatal("MortonOf not deterministic")
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func BenchmarkMortonEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]uint32, 1024)
	for i := range xs {
		xs[i] = rng.Uint32() & MaxCoord
	}
	b.ResetTimer()
	var sink Key
	for i := 0; i < b.N; i++ {
		v := xs[i&1023]
		sink ^= Morton(v, v^0x5555, v^0xaaaa)
	}
	_ = sink
}

func BenchmarkHilbertEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]uint32, 1024)
	for i := range xs {
		xs[i] = rng.Uint32() & MaxCoord
	}
	b.ResetTimer()
	var sink Key
	for i := 0; i < b.N; i++ {
		v := xs[i&1023]
		sink ^= Hilbert(v, v^0x5555, v^0xaaaa)
	}
	_ = sink
}

func BenchmarkHilbertSkilling(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]uint32, 1024)
	for i := range xs {
		xs[i] = rng.Uint32() & MaxCoord
	}
	b.ResetTimer()
	var sink Key
	for i := 0; i < b.N; i++ {
		v := xs[i&1023]
		sink ^= skillingHilbert(v, v^0x5555, v^0xaaaa)
	}
	_ = sink
}
