// Package grav implements the gravitational force kernels of the tree-code:
// the particle-particle (p-p) kernel and the particle-cell (p-c) kernel with
// quadrupole corrections, exactly as written in eqs. (1)-(2) of the paper.
//
// The flop-count conventions of §VI.A are encoded here: one p-p interaction
// is 23 floating-point operations (counting the reciprocal square root as 4)
// and one p-c interaction is 65. The legacy conventions used by earlier
// Gordon Bell submissions (38 flops per p-p) are provided for comparison.
package grav

import (
	"math"
	"sync/atomic"

	"bonsai/internal/vec"
)

// Flop-count conventions (§VI.A). These are *accounting* constants, not
// measurements: every reported flop rate in the repo — obs.StepMetrics
// (Walk/App Gflops), the JSONL and Prometheus exporters, BenchmarkKernels — is
// interactions × convention / wall-clock. The counts are per
// (target, source) interaction and deliberately independent of how the
// kernel executes (scalar loop, AVX-512F or AVX2+FMA lanes, or the device model): an
// FMA counts as 2, a reciprocal square root as 4, regardless of the
// instruction that produced it. That is what makes our numbers directly
// comparable to the paper's Table 2 / Fig. 4 and to the prior-work
// conventions below.
const (
	// FlopsPP is the operation count of one particle-particle interaction
	// (eq. 1): 4 sub + 3 mul + 6 fma (counted as 2 each = 12) +
	// 1 rsqrt (counted as 4) → 23.
	FlopsPP = 23
	// FlopsPC is the operation count of one particle-cell interaction with
	// quadrupole corrections (eq. 2): 4 sub + 6 add + 17 mul + 17 fma +
	// 1 rsqrt → 65.
	FlopsPC = 65
	// FlopsPPLegacy is the conventional 38-flop count used by refs [28]-[32].
	FlopsPPLegacy = 38
	// FlopsPPIshiyama is the 51-flop count of the 2012 GBP winner [10],
	// about half of which was a force cut-off polynomial.
	FlopsPPIshiyama = 51
)

// Multipole is the source description of a tree cell: total mass, centre of
// mass, and the raw quadrupole second-moment tensor Q = Σ m δr δrᵀ about the
// centre of mass.
type Multipole struct {
	COM  vec.V3
	M    float64
	Quad vec.Sym3
}

// Force is the accumulated acceleration and potential on a particle. The
// potential omits the factor m_i (it is the specific potential φ_i).
type Force struct {
	Acc vec.V3
	Pot float64
}

// Add accumulates another contribution.
func (f *Force) Add(g Force) {
	f.Acc = f.Acc.Add(g.Acc)
	f.Pot += g.Pot
}

// Stats counts interactions evaluated by kernels; one Stats per walk/rank.
type Stats struct {
	PP uint64 // particle-particle interactions
	PC uint64 // particle-cell interactions
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.PP += s2.PP
	s.PC += s2.PC
}

// AddAtomic accumulates s2 into s with atomic adds, for concurrent walk
// workers merging their per-worker counts into a shared Stats without a lock.
// Readers must not inspect s until the workers have been joined.
func (s *Stats) AddAtomic(s2 Stats) {
	atomic.AddUint64(&s.PP, s2.PP)
	atomic.AddUint64(&s.PC, s2.PC)
}

// Flops returns the total operation count under the paper's convention.
func (s Stats) Flops() float64 {
	return FlopsPP*float64(s.PP) + FlopsPC*float64(s.PC)
}

// FlopsLegacy returns the count under the legacy 38-flop p-p convention,
// with p-c interactions still counted at 65 (earlier codes were
// monopole-only; this is only used for record-to-record comparisons).
func (s Stats) FlopsLegacy() float64 {
	return FlopsPPLegacy*float64(s.PP) + FlopsPC*float64(s.PC)
}

// PP evaluates one particle-particle interaction: the force at position pi
// due to a source of mass mj at pj, Plummer-softened with eps2 = ε².
func PP(pi, pj vec.V3, mj, eps2 float64) Force {
	dr := pj.Sub(pi)
	r2 := dr.Norm2() + eps2
	rinv := 1 / math.Sqrt(r2)
	rinv3 := rinv * rinv * rinv
	return Force{
		Acc: dr.Scale(mj * rinv3),
		Pot: -mj * rinv,
	}
}

// PC evaluates one particle-cell interaction with quadrupole corrections
// (paper eqs. 1-2), Plummer-softened with eps2 = ε²:
//
//	φ = -m/r + ½ tr(Q)/r³ − 3/2 (rᵀQr)/r⁵
//	a =  m r/r³ − 3/2 tr(Q) r/r⁵ − 3 Q r/r⁵ + 15/2 (rᵀQr) r/r⁷
//
// with r = r_cell − r_particle and Q the raw second-moment tensor.
func PC(pi vec.V3, c Multipole, eps2 float64) Force {
	dr := c.COM.Sub(pi)
	r2 := dr.Norm2() + eps2
	rinv := 1 / math.Sqrt(r2)
	rinv2 := rinv * rinv
	rinv3 := rinv2 * rinv
	rinv5 := rinv3 * rinv2
	rinv7 := rinv5 * rinv2

	trQ := c.Quad.Trace()
	qr := c.Quad.MulVec(dr)
	rqr := dr.Dot(qr)

	pot := -c.M*rinv + 0.5*trQ*rinv3 - 1.5*rqr*rinv5
	acc := dr.Scale(c.M*rinv3 - 1.5*trQ*rinv5 + 7.5*rqr*rinv7).
		Add(qr.Scale(-3 * rinv5))
	return Force{Acc: acc, Pot: pot}
}

// AccumulatePP sums p-p interactions from a list of sources onto a single
// target position, excluding any source that coincides exactly with the
// target when eps2 == 0 (self-interaction guard for unsoftened use).
func AccumulatePP(pi vec.V3, srcPos []vec.V3, srcM []float64, eps2 float64, st *Stats) Force {
	var f Force
	for k, pj := range srcPos {
		if eps2 == 0 && pj == pi {
			continue
		}
		f.Add(PP(pi, pj, srcM[k], eps2))
	}
	if st != nil {
		st.PP += uint64(len(srcPos))
	}
	return f
}

// AccumulatePC sums p-c interactions from a list of cell multipoles onto a
// single target position.
func AccumulatePC(pi vec.V3, cells []Multipole, eps2 float64, st *Stats) Force {
	var f Force
	for _, c := range cells {
		f.Add(PC(pi, c, eps2))
	}
	if st != nil {
		st.PC += uint64(len(cells))
	}
	return f
}
