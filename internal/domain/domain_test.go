package domain

import (
	"math/rand"
	"sync"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/keys"
	"bonsai/internal/mpi"
	"bonsai/internal/vec"
)

func spawn(size int, fn func(c *mpi.Comm)) *mpi.World {
	w := mpi.NewWorld(size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(w.Comm(r))
		}(r)
	}
	wg.Wait()
	return w
}

func TestUniformDecomposition(t *testing.T) {
	d := Uniform(4)
	if d.Size() != 4 {
		t.Fatalf("size = %d", d.Size())
	}
	if d.Bounds[0] != 0 || d.Bounds[4] != keys.MaxKey {
		t.Fatalf("bounds = %v", d.Bounds)
	}
	// Owner is consistent with bounds.
	for r := 0; r < 4; r++ {
		if got := d.Owner(d.Bounds[r]); got != r {
			t.Errorf("Owner(bound[%d]) = %d", r, got)
		}
	}
	if d.Owner(keys.MaxKey-1) != 3 {
		t.Errorf("last key owner = %d", d.Owner(keys.MaxKey-1))
	}
}

func TestOwnerBinarySearchAgainstLinear(t *testing.T) {
	d := Decomposition{Bounds: []keys.Key{0, 100, 100, 5000, keys.MaxKey}}
	linear := func(k keys.Key) int {
		for r := d.Size() - 1; r >= 0; r-- {
			if k >= d.Bounds[r] {
				return r
			}
		}
		return 0
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		k := keys.Key(rng.Uint64()) % keys.MaxKey
		if got, want := d.Owner(k), linear(k); got != want {
			t.Fatalf("Owner(%d) = %d, want %d", k, got, want)
		}
	}
	// Empty range [100,100): key 100 must belong to the *later* range that
	// actually contains it per the linear rule.
	if d.Owner(99) != 0 || d.Owner(100) != 2 || d.Owner(4999) != 2 || d.Owner(5000) != 3 {
		t.Fatalf("boundary owners wrong: %d %d %d %d",
			d.Owner(99), d.Owner(100), d.Owner(4999), d.Owner(5000))
	}
}

func TestGlobalBox(t *testing.T) {
	spawn(4, func(c *mpi.Comm) {
		r := float64(c.Rank())
		local := vec.Box{Min: vec.V3{X: r}, Max: vec.V3{X: r + 1, Y: 1, Z: 1}}
		g := GlobalBox(c, local)
		if g.Min.X != 0 || g.Max.X != 4 {
			t.Errorf("rank %d: global box %+v", c.Rank(), g)
		}
	})
}

// makeRankKeys gives rank r a block of keys clustered in its own region of
// key space with some spread, n per rank.
func makeRankKeys(rank, p, n int, seed int64) []keys.Key {
	rng := rand.New(rand.NewSource(seed + int64(rank)))
	span := uint64(keys.MaxKey) / uint64(p)
	base := uint64(rank) * span
	ks := make([]keys.Key, n)
	for i := range ks {
		ks[i] = keys.Key(base + rng.Uint64()%span)
	}
	return ks
}

func TestSampleDecomposeBalancesUniformLoad(t *testing.T) {
	const p, n = 8, 5000
	var mu sync.Mutex
	counts := make([]int, p)
	spawn(p, func(c *mpi.Comm) {
		hk := makeRankKeys(c.Rank(), p, n, 11)
		dec := SampleDecompose(c, hk, nil, Options{})
		if dec.Size() != p {
			t.Errorf("size %d", dec.Size())
			return
		}
		if dec.Bounds[0] != 0 || dec.Bounds[p] != keys.MaxKey {
			t.Errorf("bounds not covering: %v", dec.Bounds)
		}
		local := make([]int, p)
		for _, k := range hk {
			local[dec.Owner(k)]++
		}
		mu.Lock()
		for r := range local {
			counts[r] += local[r]
		}
		mu.Unlock()
	})
	total := 0
	maxc := 0
	for _, k := range counts {
		total += k
		if k > maxc {
			maxc = k
		}
	}
	if total != p*n {
		t.Fatalf("particles lost: %d of %d", total, p*n)
	}
	avg := float64(total) / p
	if float64(maxc) > ImbalanceCap*avg {
		t.Errorf("imbalance: max %d vs avg %.0f", maxc, avg)
	}
}

func TestSampleDecomposeSkewedDistribution(t *testing.T) {
	// All particles concentrated in a tiny region of key space on one rank's
	// territory: the cut must still spread them across ranks.
	const p, n = 4, 8000
	var mu sync.Mutex
	counts := make([]int, p)
	spawn(p, func(c *mpi.Comm) {
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 5))
		hk := make([]keys.Key, n)
		for i := range hk {
			hk[i] = keys.Key(rng.Int63n(1 << 20)) // tiny corner of key space
		}
		dec := SampleDecompose(c, hk, nil, Options{})
		local := make([]int, p)
		for _, k := range hk {
			local[dec.Owner(k)]++
		}
		mu.Lock()
		for r := range local {
			counts[r] += local[r]
		}
		mu.Unlock()
	})
	avg := float64(p*n) / p
	for r, k := range counts {
		if float64(k) > ImbalanceCap*avg*1.05 { // small sampling tolerance
			t.Errorf("rank %d holds %d (avg %.0f)", r, k, avg)
		}
	}
}

func TestSampleDecomposeWeighted(t *testing.T) {
	// Give particles in the low half of key space 10x the work weight; the
	// weighted cut should assign fewer of them per rank, subject to the 30%
	// particle cap. We verify work balance improves over the uniform cut.
	const p, n = 4, 6000
	work := func(k keys.Key) float64 {
		if k < keys.MaxKey/2 {
			return 10
		}
		return 1
	}
	var mu sync.Mutex
	workPerRank := make([]float64, p)
	spawn(p, func(c *mpi.Comm) {
		hk := makeRankKeys(c.Rank(), p, n, 21)
		w := make([]float64, len(hk))
		for i, k := range hk {
			w[i] = work(k)
		}
		dec := SampleDecompose(c, hk, w, Options{})
		local := make([]float64, p)
		for i, k := range hk {
			local[dec.Owner(k)] += w[i]
		}
		mu.Lock()
		for r := range local {
			workPerRank[r] += local[r]
		}
		mu.Unlock()
	})
	var tot, maxw float64
	for _, w := range workPerRank {
		tot += w
		if w > maxw {
			maxw = w
		}
	}
	avg := tot / p
	// Perfect balance impossible under the particle cap; requires max work
	// within 2x of average (uniform cut would put ~2.7x average on one rank).
	if maxw > 2.0*avg {
		t.Errorf("work imbalance: max %.0f vs avg %.0f", maxw, avg)
	}
}

func TestSampleDecomposeSerialVsParallelAgree(t *testing.T) {
	// PX=1 (serial original method) and PX=4 (parallel method) must produce
	// similar-quality cuts: both within the particle cap.
	const p, n = 8, 4000
	for _, px := range []int{1, 2, 4} {
		var mu sync.Mutex
		counts := make([]int, p)
		spawn(p, func(c *mpi.Comm) {
			hk := makeRankKeys(c.Rank(), p, n, 31)
			dec := SampleDecompose(c, hk, nil, Options{PX: px})
			local := make([]int, p)
			for _, k := range hk {
				local[dec.Owner(k)]++
			}
			mu.Lock()
			for r := range local {
				counts[r] += local[r]
			}
			mu.Unlock()
		})
		maxc := 0
		for _, k := range counts {
			if k > maxc {
				maxc = k
			}
		}
		if float64(maxc) > ImbalanceCap*float64(p*n)/p {
			t.Errorf("px=%d: max count %d", px, maxc)
		}
	}
}

func TestExchangeRoutesEveryParticleToItsOwner(t *testing.T) {
	const p = 6
	g := keys.NewGrid(vec.Box{Min: vec.V3{X: -1, Y: -1, Z: -1}, Max: vec.V3{X: 1, Y: 1, Z: 1}})
	var mu sync.Mutex
	var totalAfter int
	seenIDs := map[int64]bool{}
	spawn(p, func(c *mpi.Comm) {
		rng := rand.New(rand.NewSource(int64(c.Rank()) * 97))
		parts := make([]body.Particle, 500)
		for i := range parts {
			parts[i] = body.Particle{
				Pos: vec.V3{
					X: 2*rng.Float64() - 1,
					Y: 2*rng.Float64() - 1,
					Z: 2*rng.Float64() - 1,
				},
				Mass: 1,
				ID:   int64(c.Rank())*1000 + int64(i),
			}
		}
		hk := make([]keys.Key, len(parts))
		for i := range parts {
			hk[i] = g.HilbertOf(parts[i].Pos)
		}
		dec := SampleDecompose(c, hk, nil, Options{})
		mine := Exchange(c, dec, parts, g)
		for i := range mine {
			k := g.HilbertOf(mine[i].Pos)
			if dec.Owner(k) != c.Rank() {
				t.Errorf("rank %d received particle owned by %d", c.Rank(), dec.Owner(k))
			}
		}
		mu.Lock()
		totalAfter += len(mine)
		for i := range mine {
			if seenIDs[mine[i].ID] {
				t.Errorf("duplicate particle %d", mine[i].ID)
			}
			seenIDs[mine[i].ID] = true
		}
		mu.Unlock()
	})
	if totalAfter != p*500 {
		t.Fatalf("particle count changed: %d != %d", totalAfter, p*500)
	}
}

func TestExchangeMetersBytes(t *testing.T) {
	const p = 4
	g := keys.NewGrid(vec.Box{Min: vec.V3{}, Max: vec.V3{X: 1, Y: 1, Z: 1}})
	w := spawn(p, func(c *mpi.Comm) {
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		parts := make([]body.Particle, 200)
		for i := range parts {
			parts[i] = body.Particle{Pos: vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}, Mass: 1}
		}
		dec := Uniform(p)
		Exchange(c, dec, parts, g)
	})
	if w.TotalBytes() == 0 {
		t.Error("exchange sent zero bytes")
	}
}

func TestDecomposeSinglePrimeRankCounts(t *testing.T) {
	// p prime (PX falls back to 1) and p=1 must both work.
	for _, p := range []int{1, 5, 7} {
		spawn(p, func(c *mpi.Comm) {
			hk := makeRankKeys(c.Rank(), p, 1000, 41)
			dec := SampleDecompose(c, hk, nil, Options{})
			if dec.Size() != p {
				t.Errorf("p=%d: size %d", p, dec.Size())
			}
			if dec.Bounds[0] != 0 || dec.Bounds[p] != keys.MaxKey {
				t.Errorf("p=%d: bad cover", p)
			}
		})
	}
}

func TestBodyHelpers(t *testing.T) {
	ps := []body.Particle{
		{Pos: vec.V3{X: 1}, Mass: 1},
		{Pos: vec.V3{X: 3}, Mass: 3},
	}
	if m := body.TotalMass(ps); m != 4 {
		t.Errorf("mass %v", m)
	}
	com := body.CenterOfMass(ps)
	if com.X != 2.5 {
		t.Errorf("com %v", com)
	}
	b := body.Bounds(ps)
	if b.Min.X != 1 || b.Max.X != 3 {
		t.Errorf("bounds %+v", b)
	}
}

// Ablation #6 (DESIGN.md): the original serial sampling method (PX=1)
// versus the paper's parallelized two-stage px×py variant.
func benchSampling(b *testing.B, px int) {
	const p, n = 8, 20000
	w := mpi.NewWorld(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				hk := makeRankKeys(r, p, n, 51)
				SampleDecompose(w.Comm(r), hk, nil, Options{PX: px})
			}(r)
		}
		wg.Wait()
	}
}

func BenchmarkSamplingSerial(b *testing.B)   { benchSampling(b, 1) }
func BenchmarkSamplingParallel(b *testing.B) { benchSampling(b, 4) }
