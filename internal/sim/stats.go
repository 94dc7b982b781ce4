package sim

import (
	"math"
	"time"

	"bonsai/internal/grav"
	"bonsai/internal/obs"
)

// PhaseTimes is the per-step wall-clock breakdown of one rank, mirroring the
// rows of the paper's Table II. The paper's "Sorting SFC" and
// "Tree-construction" rows are timed as one SortBuild phase: Morton keys,
// the key sort, the particle reorder and the octree construction.
type PhaseTimes struct {
	SortBuild     time.Duration // SFC sort + particle reorder + octree construction
	Domain        time.Duration // sampling decomposition + particle exchange
	TreeProps     time.Duration // multipole computation
	GravLocal     time.Duration // tree-walk over the local tree
	GravLET       time.Duration // tree-walks over boundary trees and received LETs
	NonHiddenComm time.Duration // LET communication time not hidden behind walks
	Other         time.Duration // integration, bookkeeping, imbalance waits
	Total         time.Duration
}

// Add accumulates another breakdown (for averaging over steps).
func (p *PhaseTimes) Add(q PhaseTimes) {
	p.SortBuild += q.SortBuild
	p.Domain += q.Domain
	p.TreeProps += q.TreeProps
	p.GravLocal += q.GravLocal
	p.GravLET += q.GravLET
	p.NonHiddenComm += q.NonHiddenComm
	p.Other += q.Other
	p.Total += q.Total
}

// Accounted returns the sum of the explicitly timed phases — every row
// except Other and Total.
func (p PhaseTimes) Accounted() time.Duration {
	return p.SortBuild + p.Domain + p.TreeProps +
		p.GravLocal + p.GravLET + p.NonHiddenComm
}

// DeriveOther sets Other to Total minus the accounted phases, clamped at
// zero, so the Table II rows sum to Total. This is the single place Other is
// derived; every pipeline path calls it after stamping Total.
func (p *PhaseTimes) DeriveOther() {
	p.Other = p.Total - p.Accounted()
	if p.Other < 0 {
		p.Other = 0
	}
}

// Scale divides all phases by n (for averaging).
func (p PhaseTimes) Scale(n int) PhaseTimes {
	if n <= 0 {
		return p
	}
	d := time.Duration(n)
	return PhaseTimes{
		SortBuild: p.SortBuild / d, Domain: p.Domain / d,
		TreeProps: p.TreeProps / d,
		GravLocal: p.GravLocal / d, GravLET: p.GravLET / d,
		NonHiddenComm: p.NonHiddenComm / d, Other: p.Other / d,
		Total: p.Total / d,
	}
}

// RankStats is everything one rank reports for one step.
type RankStats struct {
	Times        PhaseTimes
	Grav         grav.Stats // interactions evaluated by this rank
	NLocal       int        // particles owned after the step
	LETsSent     int        // full LETs pushed to other ranks
	LETsRecv     int        // full LETs received
	BoundaryUsed int        // remote ranks served by their boundary tree alone
	BoundarySent int        // boundary trees pushed to peers (p−1 per evaluation)
	LETBytesSent int64      // serialized LET + boundary traffic

	// Overlap-efficiency counters for the pipelined gravity phase.
	LETsOverlapped int           // LETs walked before the local walk finished
	RecvIdle       time.Duration // receiver-goroutine time blocked on arrivals

	// Event-level diagnostics, populated only when tracing is enabled
	// (Config.Obs != nil): the worst full-LET arrival time relative to this
	// rank's local-walk completion (negative = fully hidden), and how many
	// arrivals it was measured over.
	WorstArrival time.Duration
	ArrivalsSeen int
}

// add accumulates another evaluation's stats into a step-level total.
func (a *RankStats) add(b RankStats) {
	a.Times.Add(b.Times)
	a.Grav.Add(b.Grav)
	a.NLocal = b.NLocal
	a.LETsSent += b.LETsSent
	a.LETsRecv += b.LETsRecv
	a.BoundaryUsed += b.BoundaryUsed
	a.LETBytesSent += b.LETBytesSent
	a.BoundarySent += b.BoundarySent
	a.LETsOverlapped += b.LETsOverlapped
	a.RecvIdle += b.RecvIdle
	if b.ArrivalsSeen > 0 && (a.ArrivalsSeen == 0 || b.WorstArrival > a.WorstArrival) {
		a.WorstArrival = b.WorstArrival
	}
	a.ArrivalsSeen += b.ArrivalsSeen
}

// WalkGflops returns this rank's effective gravity-walk rate in Gflop/s
// (interactions evaluated over local + LET walk wall-clock, §VI.A counting).
// A rank with zero walk time — an empty domain, or a clock too coarse to
// resolve a tiny walk — reports 0 rather than ±Inf/NaN, so it can never
// poison a step aggregate.
func (r RankStats) WalkGflops() float64 {
	return finiteRate(r.Grav.Gflops(r.Times.GravLocal + r.Times.GravLET))
}

// stepMetrics is the one conversion from a rank's statistics of a force
// evaluation to its record in the metrics stream. A rank only knows its own
// times: Mean == Max == its step time and Straggler names itself;
// obs.MergeStepMetrics folds the per-rank records of an evaluation into the
// cross-rank one. be carries the block-timestep diagnostics of a substep
// evaluation (nil on the global-dt path).
func (r RankStats) stepMetrics(eval, rank, ranks int, be *blockEval) obs.StepMetrics {
	t := r.Times
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	m := obs.StepMetrics{
		Step:            eval,
		Rank:            rank,
		Ranks:           ranks,
		N:               r.NLocal,
		MeanStepMS:      ms(t.Total),
		MaxStepMS:       ms(t.Total),
		Straggler:       rank,
		NonHiddenCommMS: ms(t.NonHiddenComm),
		LETsRecv:        r.LETsRecv,
		LETsOverlapped:  r.LETsOverlapped,
		BoundarySent:    r.BoundarySent,
		ArrivalsSeen:    r.ArrivalsSeen,
		WalkGflops:      r.WalkGflops(),
		AppGflops:       finiteRate(r.Grav.Gflops(t.Total)),
		KernelISA:       grav.KernelISA(),
		SortBuildMS:     ms(t.SortBuild),
		DomainMS:        ms(t.Domain),
		TreePropsMS:     ms(t.TreeProps),
		GravLocalMS:     ms(t.GravLocal),
		GravLETMS:       ms(t.GravLET),
		OtherMS:         ms(t.Other),
	}
	if r.LETsRecv > 0 {
		m.OverlapFrac = float64(r.LETsOverlapped) / float64(r.LETsRecv)
	}
	if r.ArrivalsSeen > 0 {
		m.WorstArrivalMS = float64(r.WorstArrival) / 1e6
	}
	if be != nil {
		m.Substep = be.boundary
		m.TreeRebuilt = be.rebuilt
		if be.totalN > 0 {
			m.ActiveN = be.activeN
			m.ActiveFrac = float64(be.activeN) / float64(be.totalN)
		}
		m.RungPop = be.rungPop
	}
	return m
}

// finiteRate clamps non-finite rates (0/0 or x/0 artifacts) to zero.
func finiteRate(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// StepStats aggregates a step over all ranks.
type StepStats struct {
	Step     int
	Ranks    int
	N        int // total particles
	Times    PhaseTimes
	MaxTimes PhaseTimes // slowest rank per phase (load imbalance view)
	Grav     grav.Stats

	LETsSent     int
	BoundaryUsed int
	BoundarySent int   // boundary-tree pushes: p·(p−1) per evaluation
	BytesSent    int64 // all rank-to-rank traffic this step (metered)

	// Overlap efficiency of the gravity phase: how many of the received
	// full LETs were walked while the local tree-walk was still running
	// (OverlapFrac = LETsOverlapped/LETsRecv), and the mean per-rank time
	// the receiver goroutine spent blocked waiting for arrivals (hidden
	// behind the local walk, unlike Times.NonHiddenComm).
	LETsRecv       int
	LETsOverlapped int
	OverlapFrac    float64
	RecvIdle       time.Duration

	PPPerParticle float64
	PCPerParticle float64

	// Application/walk performance in Gflop/s computed from the paper's
	// interaction-count conventions and measured wall-clock: Walk uses only
	// the gravity-walk time (the "GPU kernels" line of Fig. 4), App uses the
	// full step time.
	WalkGflops float64
	AppGflops  float64

	// KernelISA names the force-kernel instruction set the walks ran on
	// ("avx2+fma" when the runtime dispatch selected the SIMD kernels,
	// "scalar" otherwise) so recorded rates can be attributed to a kernel.
	KernelISA string

	// Block-timestep summary, populated only on Config.BlockSteps steps:
	// substep force evaluations the step ran, full tree rebuilds among them
	// (the rest reused the tree with refreshed multipoles), and the mean
	// fraction of particles active per evaluation (1 on global-dt-equivalent
	// runs with MaxRungs == 0, where the fields stay zero).
	Substeps   int
	Rebuilds   int
	ActiveFrac float64
}

// Aggregate combines per-rank stats into a StepStats; the facade's
// multi-process Node runs use it to report one rank's stats in the summary
// shape Simulation produces.
func Aggregate(step int, rs []RankStats) StepStats { return aggregate(step, rs) }

// aggregate combines per-rank stats into a StepStats.
func aggregate(step int, rs []RankStats) StepStats {
	out := StepStats{Step: step, Ranks: len(rs)}
	for i := range rs {
		out.N += rs[i].NLocal
		out.Times.Add(rs[i].Times)
		out.Grav.Add(rs[i].Grav)
		out.LETsSent += rs[i].LETsSent
		out.BoundaryUsed += rs[i].BoundaryUsed
		out.BytesSent += rs[i].LETBytesSent
		out.LETsRecv += rs[i].LETsRecv
		out.LETsOverlapped += rs[i].LETsOverlapped
		out.RecvIdle += rs[i].RecvIdle
		out.BoundarySent += rs[i].BoundarySent
		maxDur(&out.MaxTimes.SortBuild, rs[i].Times.SortBuild)
		maxDur(&out.MaxTimes.Domain, rs[i].Times.Domain)
		maxDur(&out.MaxTimes.TreeProps, rs[i].Times.TreeProps)
		maxDur(&out.MaxTimes.GravLocal, rs[i].Times.GravLocal)
		maxDur(&out.MaxTimes.GravLET, rs[i].Times.GravLET)
		maxDur(&out.MaxTimes.NonHiddenComm, rs[i].Times.NonHiddenComm)
		maxDur(&out.MaxTimes.Other, rs[i].Times.Other)
		maxDur(&out.MaxTimes.Total, rs[i].Times.Total)
	}
	out.Times = out.Times.Scale(len(rs))
	if len(rs) > 0 {
		out.RecvIdle /= time.Duration(len(rs))
	}
	if out.LETsRecv > 0 {
		out.OverlapFrac = float64(out.LETsOverlapped) / float64(out.LETsRecv)
	}
	if out.N > 0 {
		out.PPPerParticle = float64(out.Grav.PP) / float64(out.N)
		out.PCPerParticle = float64(out.Grav.PC) / float64(out.N)
	}
	// Effective rates under the paper's §VI.A flop conventions: ranks walk
	// concurrently, so the aggregate walk rate is the total flop count over
	// the average per-rank busy time; the application rate divides by the
	// slowest rank's full step (the paper's own headline metric).
	out.WalkGflops = finiteRate(out.Grav.Gflops(out.Times.GravLocal + out.Times.GravLET))
	out.AppGflops = finiteRate(out.Grav.Gflops(out.MaxTimes.Total))
	out.KernelISA = grav.KernelISA()
	return out
}

func maxDur(dst *time.Duration, v time.Duration) {
	if v > *dst {
		*dst = v
	}
}
