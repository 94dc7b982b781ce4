// Package domain implements the Peano–Hilbert space-filling-curve domain
// decomposition of the paper (§III.B.1): the global PH curve is cut into p
// contiguous key ranges, one per rank, by the *parallelized sampling method*.
//
// The original sampling method gathers key samples from every rank at a
// single decomposition process, which becomes a serial bottleneck at large
// p. The paper parallelizes it by factoring p = px·py: a first, coarse
// sampling pass cuts the curve into px super-domains; a second pass sends
// samples to the px DD-processes in parallel, each of which cuts its
// super-domain into py final pieces. Both variants are implemented here so
// the serial bottleneck can be demonstrated (DESIGN.md ablation #6).
//
// Load balance follows the paper: sampling is weighted by the per-particle
// work recorded during the previous step's tree-walk (flop balancing), with
// the constraint that no rank may hold more than 30% above the average
// particle count; when the work-weighted cut violates the cap, the weights
// are progressively blended toward uniform until it holds.
package domain

import (
	"sort"

	"bonsai/internal/body"
	"bonsai/internal/keys"
	"bonsai/internal/mpi"
	"bonsai/internal/vec"
)

// ImbalanceCap is the paper's 30% limit on per-rank particle counts
// relative to the average.
const ImbalanceCap = 1.3

// Decomposition is a cut of the PH curve into Size() contiguous ranges.
// Rank r owns keys in [Bounds[r], Bounds[r+1]).
type Decomposition struct {
	Bounds []keys.Key
}

// Uniform returns the trivial decomposition cutting key space into p equal
// ranges, used for bootstrapping before any particle information exists.
func Uniform(p int) Decomposition {
	b := make([]keys.Key, p+1)
	step := uint64(keys.MaxKey) / uint64(p)
	for r := 1; r < p; r++ {
		b[r] = keys.Key(uint64(r) * step)
	}
	b[p] = keys.MaxKey
	return Decomposition{Bounds: b}
}

// Size returns the number of ranges.
func (d Decomposition) Size() int { return len(d.Bounds) - 1 }

// Owner returns the rank owning key k.
func (d Decomposition) Owner(k keys.Key) int {
	// First bound > k, minus one.
	lo, hi := 1, len(d.Bounds)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d.Bounds[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// GlobalBox computes the union of all ranks' local bounding boxes; every
// rank receives the same result. This is the "CPUs determine the global
// bounding box" step that anchors the PH key grid.
func GlobalBox(c *mpi.Comm, local vec.Box) vec.Box {
	return mpi.Allreduce(c, local, vec.Box.Union, 6*8)
}

// Options configures the sampling decomposition.
type Options struct {
	// PX is the number of first-stage decomposition processes; 0 chooses the
	// largest divisor of p not exceeding sqrt(p). PX=1 reproduces the
	// original serial sampling method.
	PX int
	// Rate1 and Rate2 are per-rank sample counts for the two stages; 0
	// selects defaults (128 and 512).
	Rate1, Rate2 int
}

func (o Options) withDefaults(p int) Options {
	if o.PX <= 0 {
		o.PX = 1
		for d := 2; d*d <= p; d++ {
			if p%d == 0 {
				o.PX = d
			}
		}
		// prefer the largest divisor <= sqrt(p); for primes PX stays 1.
	}
	for p%o.PX != 0 {
		o.PX--
	}
	if o.Rate1 <= 0 {
		o.Rate1 = 128
	}
	if o.Rate2 <= 0 {
		o.Rate2 = 512
	}
	return o
}

// SampleDecompose computes a new decomposition from the calling rank's local
// Hilbert keys and work weights (weights may be nil for uniform work). It is
// a collective call: all ranks must participate. The returned decomposition
// is identical on every rank and respects the 30% particle-count cap
// whenever a cap-respecting sampling-based cut exists.
func SampleDecompose(c *mpi.Comm, hk []keys.Key, weights []float64, opt Options) Decomposition {
	p := c.Size()
	opt = opt.withDefaults(p)
	if p == 1 {
		return Uniform(1)
	}

	blend := 0.0 // 0: pure work weights; 1: pure uniform
	var dec Decomposition
	for iter := 0; iter < 4; iter++ {
		w := blendWeights(weights, len(hk), blend)
		dec = sampleOnce(c, hk, w, opt)
		if satisfiesCap(c, hk, dec) {
			return dec
		}
		blend = blend + (1-blend)*0.6
	}
	// Final attempt with fully uniform weights.
	dec = sampleOnce(c, hk, nil, opt)
	return dec
}

func blendWeights(w []float64, n int, blend float64) []float64 {
	if w == nil || blend >= 1 {
		return nil
	}
	if blend == 0 {
		return w
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	mean := 1.0
	if n > 0 && sum > 0 {
		mean = sum / float64(n)
	}
	out := make([]float64, len(w))
	for i, x := range w {
		out[i] = (1-blend)*x + blend*mean
	}
	return out
}

// sampleOnce runs the two-stage parallel sampling and returns a p-piece cut.
func sampleOnce(c *mpi.Comm, hk []keys.Key, weights []float64, opt Options) Decomposition {
	p := c.Size()
	px := opt.PX
	py := p / px

	// --- Stage 1: coarse cut into px super-domains.
	s1 := systematicSample(hk, weights, opt.Rate1)
	all := mpi.Gather(c, 0, s1, len(s1)*8)
	var coarse []keys.Key
	if c.Rank() == 0 {
		merged := mergeSamples(all)
		coarse = cut(merged, px)
	}
	coarse = mpi.Bcast(c, 0, coarse, (px+1)*8)

	// --- Stage 2: each rank samples again and routes samples to the
	// DD-process responsible for the enclosing super-domain (ranks 0..px-1).
	s2 := systematicSample(hk, weights, opt.Rate2)
	bins := make([][]keys.Key, p)
	cd := Decomposition{Bounds: coarse}
	for _, k := range s2 {
		d := cd.Owner(k)
		bins[d] = append(bins[d], k)
	}
	received := mpi.Alltoallv(c, bins, 8)

	// DD-processes cut their super-domain into py pieces.
	var myCuts []keys.Key
	if c.Rank() < px {
		var ks []keys.Key
		for _, r := range received {
			ks = append(ks, r...)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		myCuts = interiorCuts(ks, py)
	}
	cutsByDD := mpi.Allgather(c, myCuts, len(myCuts)*8)

	// Assemble the final bounds: super-domain boundaries plus interior cuts.
	bounds := make([]keys.Key, 0, p+1)
	for d := 0; d < px; d++ {
		bounds = append(bounds, coarse[d])
		bounds = append(bounds, cutsByDD[d]...)
	}
	bounds = append(bounds, keys.MaxKey)
	bounds[0] = 0
	// Guard monotonicity in degenerate cases (few distinct samples).
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			bounds[i] = bounds[i-1]
		}
	}
	return Decomposition{Bounds: bounds}
}

// systematicSample draws ~rate keys with probability proportional to weight
// (uniform when weights is nil) by systematic (stratified) sampling.
func systematicSample(hk []keys.Key, weights []float64, rate int) []keys.Key {
	n := len(hk)
	if n == 0 || rate <= 0 {
		return nil
	}
	if rate > n {
		rate = n
	}
	out := make([]keys.Key, 0, rate)
	if weights == nil {
		step := float64(n) / float64(rate)
		for i := 0; i < rate; i++ {
			out = append(out, hk[int(float64(i)*step+step/2)])
		}
		return out
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return systematicSample(hk, nil, rate)
	}
	step := total / float64(rate)
	next := step / 2
	var cum float64
	for i := 0; i < n && len(out) < rate; i++ {
		cum += weights[i]
		for cum > next && len(out) < rate {
			out = append(out, hk[i])
			next += step
		}
	}
	return out
}

func mergeSamples(all [][]keys.Key) []keys.Key {
	var ks []keys.Key
	for _, s := range all {
		ks = append(ks, s...)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// cut returns piece boundaries [0, c1, ..., c_{n-1}, MaxKey] splitting the
// sorted sample list into n equal-population pieces.
func cut(sorted []keys.Key, n int) []keys.Key {
	b := make([]keys.Key, n+1)
	b[n] = keys.MaxKey
	for i := 1; i < n; i++ {
		if len(sorted) > 0 {
			b[i] = sorted[i*len(sorted)/n]
		}
	}
	for i := 1; i <= n; i++ {
		if b[i] < b[i-1] {
			b[i] = b[i-1]
		}
	}
	return b
}

// interiorCuts returns the n-1 interior cut keys for a sorted sample list.
func interiorCuts(sorted []keys.Key, n int) []keys.Key {
	out := make([]keys.Key, n-1)
	for i := 1; i < n; i++ {
		if len(sorted) > 0 {
			out[i-1] = sorted[i*len(sorted)/n]
		}
	}
	return out
}

// satisfiesCap checks the 30% particle-count cap collectively.
func satisfiesCap(c *mpi.Comm, hk []keys.Key, dec Decomposition) bool {
	p := dec.Size()
	local := make([]int, p)
	for _, k := range hk {
		local[dec.Owner(k)]++
	}
	counts := mpi.Allreduce(c, local, sumInts, p*8)
	total := 0
	maxc := 0
	for _, n := range counts {
		total += n
		if n > maxc {
			maxc = n
		}
	}
	if total == 0 {
		return true
	}
	avg := float64(total) / float64(p)
	return float64(maxc) <= ImbalanceCap*avg
}

func sumInts(a, b []int) []int {
	out := make([]int, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Exchange routes every particle to the rank owning its Hilbert key under
// dec and returns the calling rank's new particle set. Collective.
func Exchange(c *mpi.Comm, dec Decomposition, parts []body.Particle, g keys.Grid) []body.Particle {
	p := c.Size()
	outgoing := make([][]body.Particle, p)
	for i := range parts {
		owner := dec.Owner(g.HilbertOf(parts[i].Pos))
		outgoing[owner] = append(outgoing[owner], parts[i])
	}
	recv := mpi.Alltoallv(c, outgoing, body.WireBytes)
	var mine []body.Particle
	for _, r := range recv {
		mine = append(mine, r...)
	}
	return mine
}
