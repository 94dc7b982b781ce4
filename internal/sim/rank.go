package sim

import (
	"fmt"
	"math"
	"time"

	"bonsai/internal/body"
	"bonsai/internal/domain"
	"bonsai/internal/grav"
	"bonsai/internal/keys"
	"bonsai/internal/mpi"
	"bonsai/internal/obs"
	"bonsai/internal/octree"
	"bonsai/internal/par"
	"bonsai/internal/psort"
	"bonsai/internal/vec"
)

// rank is one simulated MPI process with one simulated GPU. Its step
// pipeline reproduces the paper's: SFC sort → domain update → tree build →
// tree properties → local gravity overlapped with the boundary-tree and LET
// exchange → integration.
type rank struct {
	cfg  *Config
	comm *mpi.Comm

	parts []body.Particle // local particles, Morton-sorted after sortBuild
	grid  keys.Grid
	dec   domain.Decomposition

	// SoA views rebuilt each step (tree order == parts order).
	pos  []vec.V3
	mass []float64
	mk   []keys.Key
	acc  []vec.V3
	pot  []float64

	tree   *octree.Tree
	groups []octree.Group

	// Scratch reused across steps (per-rank, single-writer): the sort's key
	// slice and Sorter (ping-pong buffer + radix histograms), the particle
	// reorder target, the domain phase's Hilbert keys and work weights, and
	// the tree build's cell slice. Together these make the steady-state
	// sort+build/domain-keys/groups phases allocation-free.
	kv      []psort.KV
	sorter  psort.Sorter
	spare   []body.Particle
	hk      []keys.Key
	weights []float64
	ts      octree.BuildScratch

	// Observability (nil when tracing is disabled): the rank's span buffer,
	// and the current evaluation sequence number.
	obs  *obs.RankRec
	eval int

	// The current gravity phase's LET exchange; its per-peer tables are
	// reused across evaluations.
	exch exchange

	// The running evaluation's record (written in place by every phase);
	// while tracing, every closed record of the driver's current advance,
	// for its stream; and the current step's evaluations so far, folded by
	// AddEval.
	stats   obs.StepMetrics
	recs    []obs.StepMetrics
	stepSum obs.StepMetrics

	// Rung hierarchy state (MaxRungs > 0; see block.go): rungPop the
	// allreduced global rung population, buildPos/minLeaf/maxDrift2 the
	// tree-reuse drift bound, and the a* slices the compact gather buffers
	// for active-subset walks.
	rungPop    []float64
	popScratch []float64
	buildPos   []vec.V3
	minLeaf    float64
	maxDrift2  float64
	active     []int32
	apos       []vec.V3
	amass      []float64
	aacc       []vec.V3
	apot       []float64
	agroups    []octree.Group
}

// walkTargets is the target side of one gravity phase: the groups to walk,
// their SoA views, and the force/potential outputs, plus the bounding box
// advertised to peers (the box sufficiency checks and LET builds see). The
// full pipeline points it at the rank's tree-ordered arrays; block-timestep
// substeps point it at compact gathers of the active particles only, so the
// LET/boundary exchange ships data for active walks alone.
type walkTargets struct {
	groups []octree.Group
	pos    []vec.V3
	mass   []float64
	acc    []vec.V3
	pot    []float64
	box    vec.Box
	index  []int32 // each target's index into the rank's particles; nil when target i is particle i
}

// NonFiniteForceError is the value a rank panics with when a force phase
// leaves a NaN or an Inf in the acceleration or potential of a particle it
// just evaluated: no such value reaches the integrator, the energy sums or a
// checkpoint.
type NonFiniteForceError struct {
	Rank int
	ID   int64 // the particle's ID
	Acc  vec.V3
	Pot  float64
}

func (e *NonFiniteForceError) Error() string {
	return fmt.Sprintf("sim: rank %d: force phase left acc %v, pot %v on particle id %d", e.Rank, e.Acc, e.Pot, e.ID)
}

// TreeMassError is the value a rank panics with when a properties sweep
// leaves the root multipole's mass different from the sum of the particle
// masses the tree was built over: some cell's moments were not computed, and
// no walk sees that tree.
type TreeMassError struct {
	Rank     int
	RootMass float64
	SumMass  float64
}

func (e *TreeMassError) Error() string {
	return fmt.Sprintf("sim: rank %d: root multipole mass %g after the properties sweep, particle masses sum to %g", e.Rank, e.RootMass, e.SumMass)
}

// checkTreeMass is the always-on invariant after every properties sweep: root
// multipole mass equals the particles' total mass to 1e-9 relative.
func (r *rank) checkTreeMass() {
	sum := body.TotalMass(r.parts)
	if root := r.tree.TotalMass(); !(math.Abs(root-sum) <= 1e-9*sum) {
		panic(&TreeMassError{Rank: r.comm.Rank(), RootMass: root, SumMass: sum})
	}
}

// ExchangeConservationError is the value a rank panics with when a domain
// exchange changes the global particle count or total mass: a particle was
// dropped, duplicated or altered between ranks, and no tree is built over
// that set.
type ExchangeConservationError struct {
	Rank                    int
	CountBefore, CountAfter int64
	MassBefore, MassAfter   float64
}

func (e *ExchangeConservationError) Error() string {
	return fmt.Sprintf("sim: rank %d: domain exchange turned %d particles of mass %g into %d of mass %g",
		e.Rank, e.CountBefore, e.MassBefore, e.CountAfter, e.MassAfter)
}

// tally is the rank's local particle count and total mass, the quantities a
// domain exchange must conserve globally.
func (r *rank) tally() (count, mass float64) {
	return float64(len(r.parts)), body.TotalMass(r.parts)
}

// checkExchange is the always-on invariant across domain.Exchange, given the
// rank's tally from before it: summed over all ranks in one Allreduce, the
// particle count is unchanged (exact in float64 below 2^53) and the mass
// agrees to 1e-9 relative. Collective.
func (r *rank) checkExchange(countBefore, massBefore float64) {
	countAfter, massAfter := r.tally()
	g := mpi.Allreduce(r.comm, []float64{countBefore, massBefore, countAfter, massAfter}, sumFloats, 4*8)
	if g[0] != g[2] || !(math.Abs(g[3]-g[1]) <= 1e-9*g[1]) {
		panic(&ExchangeConservationError{Rank: r.comm.Rank(),
			CountBefore: int64(g[0]), CountAfter: int64(g[2]), MassBefore: g[1], MassAfter: g[3]})
	}
}

// sumFloats is the element-wise sum, the reduction of every float64 Allreduce
// here. It returns a fresh slice: in-process ranks receive operands by
// reference.
func sumFloats(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// endEval closes the running evaluation's record, which took total: its
// identity, particle count and span-drop count, and what EndEval derives.
func (r *rank) endEval(total time.Duration) {
	s := &r.stats
	s.Step, s.Rank, s.Ranks = r.eval, r.comm.Rank(), r.comm.Size()
	s.KernelISA = grav.KernelISA()
	s.N = len(r.parts)
	s.SpansDropped = r.obs.Dropped()
	s.EndEval(total)
}

// keep appends the closed record to the advance's records when tracing.
func (r *rank) keep() {
	if r.obs != nil {
		r.recs = append(r.recs, r.stats)
	}
}

// fullTargets points a walkTargets at the rank's full tree-ordered arrays —
// every local particle is a walk target. The advertised box is the union of
// the groups' boxes: sufficiency checks and LET construction must see a box
// that bounds every box the walk tests. The groups partition the particles
// and min and max are exact, so after a build it is body.Bounds of the
// particles bit for bit, at O(groups) cost.
func (r *rank) fullTargets() walkTargets {
	return walkTargets{
		groups: r.groups,
		pos:    r.pos,
		mass:   r.mass,
		acc:    r.acc,
		pot:    r.pot,
		box:    groupsBox(r.groups),
	}
}

// groupsBox is the union of the groups' boxes.
func groupsBox(groups []octree.Group) vec.Box {
	b := vec.EmptyBox()
	for i := range groups {
		b = b.Union(groups[i].Box)
	}
	return b
}

// buildPipeline runs the tree side of a force evaluation: global bounding
// box and key grid, the (optional) domain update, the Morton sort + octree
// construction, and multipoles + target groups.
func (r *rank) buildPipeline(step, eval int, domainUpdate bool) {
	// --- Global bounding box and key grid.
	gbox := domain.GlobalBox(r.comm, body.Bounds(r.parts))
	r.grid = keys.NewGrid(gbox)

	// --- Domain update (decomposition + exchange) every domainFreq steps.
	tD := time.Now()
	if domainUpdate {
		// Hilbert keys and work weights go into rank scratch (not fresh
		// slices): the decomposition only reads them during the collective
		// call, so reuse across domain epochs is safe. The key loop is
		// chunked over the rank's workers.
		// Closure literals live inside the workers > 1 branches only: they
		// escape through par.For's goroutines, and hoisting them would cost the
		// serial path a heap allocation per call.
		r.hk = resize(r.hk, len(r.parts))
		hk, parts := r.hk, r.parts
		if w := r.cfg.WorkersPerRank; w > 1 {
			par.For(len(parts), w, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hk[i] = r.grid.HilbertOf(parts[i].Pos)
				}
			})
		} else {
			for i := range parts {
				hk[i] = r.grid.HilbertOf(parts[i].Pos)
			}
		}
		var weights []float64
		if step > 0 {
			r.weights = resize(r.weights, len(parts))
			weights = r.weights
			if w := r.cfg.WorkersPerRank; w > 1 {
				par.For(len(parts), w, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						weights[i] = parts[i].Weight
					}
				})
			} else {
				for i := range parts {
					weights[i] = parts[i].Weight
				}
			}
		}
		r.dec = domain.SampleDecompose(r.comm, hk, weights, domain.Options{})
		count, mass := r.tally()
		r.parts = domain.Exchange(r.comm, r.dec, r.parts, r.grid)
		r.checkExchange(count, mass)
	}
	r.stats.Times.Domain = time.Since(tD)
	r.obs.Span(eval, obs.PhaseDomain, obs.LaneCompute, 0, tD, tD.Add(r.stats.Times.Domain), 0)

	// --- Morton sort, particle reorder and tree construction.
	tS := time.Now()
	r.sortBuild()
	r.stats.Times.SortBuild = time.Since(tS)
	r.obs.Span(eval, obs.PhaseSortBuild, obs.LaneCompute, 0, tS, tS.Add(r.stats.Times.SortBuild), 0)

	// --- Tree properties (multipoles) and target groups, both multicore.
	tP := time.Now()
	r.tree.ComputePropertiesParallel(r.cfg.WorkersPerRank)
	r.checkTreeMass()
	r.groups = r.tree.MakeGroupsScratch(octree.DefaultNGroup, r.cfg.WorkersPerRank, r.groups)
	r.stats.Times.TreeProps = time.Since(tP)
	r.obs.Span(eval, obs.PhaseTreeProps, obs.LaneCompute, 0, tP, tP.Add(r.stats.Times.TreeProps), 0)
}

// sortBuild computes Morton keys, sorts them, reorders r.parts (and the SoA
// views) into key order and builds the tree structure over them, all through
// the rank's scratch buffers. The sort and the reorder use the rank's
// workers; the build is serial. Every parallel loop writes disjoint indices,
// so the result is independent of the worker count.
func (r *rank) sortBuild() {
	n := len(r.parts)
	workers := r.cfg.WorkersPerRank
	r.kv = resize(r.kv, n)
	kv, parts := r.kv, r.parts
	if workers > 1 {
		par.For(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				kv[i] = psort.KV{Key: uint64(r.grid.MortonOf(parts[i].Pos)), Idx: int32(i)}
			}
		})
	} else {
		for i := range parts {
			kv[i] = psort.KV{Key: uint64(r.grid.MortonOf(parts[i].Pos)), Idx: int32(i)}
		}
	}
	r.sorter.Sort(kv, workers)

	r.spare = resize(r.spare, n)
	r.mk = resize(r.mk, n)
	r.pos = resize(r.pos, n)
	r.mass = resize(r.mass, n)
	r.acc = resize(r.acc, n)
	r.pot = resize(r.pot, n)
	if workers > 1 {
		par.For(n, workers, r.fill)
	} else {
		r.fill(0, n)
	}
	r.parts, r.spare = r.spare, r.parts

	r.tree = octree.BuildStructureScratch(&r.ts, r.mk, r.pos, r.mass, r.grid, octree.DefaultNLeaf, workers)
}

// fill permutes the payload of the sorted key range [lo, hi): particles from
// r.parts (still the unsorted array) into r.spare, and the SoA views from
// there. Calls on disjoint ranges may run concurrently.
func (r *rank) fill(lo, hi int) {
	kv, spare := r.kv, r.spare
	psort.Permute(kv[lo:hi], r.parts, spare[lo:hi])
	for i := lo; i < hi; i++ {
		r.mk[i] = keys.Key(kv[i].Key)
		r.pos[i] = spare[i].Pos
		r.mass[i] = spare[i].Mass
		r.acc[i] = vec.V3{}
		r.pot[i] = 0
	}
}

// gravity computes the targets' accelerations from the local tree and from
// every remote tree of the phase's exchange (exchange.go). The compute thread
// walks the local tree in chunks with a non-blocking poll of the mailbox
// between them, banking boundary trees and LETs as they land; nothing remote
// is walked while local groups are pending. Then it banks every tree still
// owed, building queued LETs before it blocks, and walks them all in one
// batched pass in ascending peer order. Each group's merged list, and so
// every acceleration, is therefore fixed bitwise whatever the arrival order,
// transport or worker count.
//
// The target side (groups, their SoA views, outputs, and the advertised box)
// comes from t: a full evaluation passes every local particle, a mid-step
// substep only the active subset. tagPar is the message-tag parity that
// separates consecutive gravity phases' traffic: the evaluation's parity.
func (r *rank) gravity(tagPar int, t *walkTargets) {
	theta, eps2 := r.cfg.Theta, r.cfg.Softening*r.cfg.Softening
	x := r.startExchange(tagPar, t)
	x.overlap()

	// Chunks give the pipeline regular poll points while staying wide enough
	// to feed the walk's worker pool.
	chunk := max((len(t.groups)+15)/16, r.cfg.WorkersPerRank)
	var localWalk time.Duration
	for pending := t.groups; len(pending) > 0; {
		r.stats.LETsOverlapped += x.poll()
		n := min(chunk, len(pending))
		tL := time.Now()
		octree.WalkSource(r.tree, pending[:n], t.pos, theta, eps2, t.acc, t.pot,
			r.cfg.WorkersPerRank, &r.stats.Stats)
		d := time.Since(tL)
		localWalk += d
		r.obs.Span(r.eval, obs.PhaseWalkLocal, obs.LaneCompute, 0, tL, tL.Add(d), int64(n))
		pending = pending[n:]
	}
	x.markWalkDone()
	r.stats.Times.GravLocal = localWalk

	x.awaitBoundaries()
	x.awaitLETs()
	x.flush()
	x.finish()
}

// finishForces applies the target-local post-processing of a gravity phase:
// the softened self-interaction fix and the G scaling, and then panics with a
// *NonFiniteForceError if any target's result is not finite. It operates
// purely on t's arrays, so it serves both the full pipeline (t aliases the
// rank's tree-ordered slices) and active-subset evaluations (t aliases the
// compact gather buffers).
func (r *rank) finishForces(t *walkTargets) {
	// Remove the softened self-interaction contributed by each particle's
	// own leaf (acc contribution is exactly zero; potential is -m/ε).
	if r.cfg.Softening > 0 {
		for i := range t.pot {
			t.pot[i] += t.mass[i] / r.cfg.Softening
		}
	}

	// Scale by the unit system's gravitational constant (forces and
	// potentials are linear in G; kernels compute the G=1 sums).
	if g := r.cfg.GravConst; g != 1 {
		for i := range t.acc {
			t.acc[i] = t.acc[i].Scale(g)
			t.pot[i] *= g
		}
	}

	// Always-on invariant: nothing non-finite leaves a force phase.
	for i, a := range t.acc {
		if p := t.pot[i]; !a.IsFinite() || math.IsNaN(p) || math.IsInf(p, 0) {
			j := i
			if t.index != nil {
				j = int(t.index[i])
			}
			panic(&NonFiniteForceError{Rank: r.comm.Rank(), ID: r.parts[j].ID, Acc: a, Pot: t.pot[i]})
		}
	}
}

// energy adds this rank's kinetic and potential energy from the most recent
// force evaluation to the running sums. The potential is halved: each pair is
// counted twice by the per-particle sums.
func (r *rank) energy(kin, pot float64) (float64, float64) {
	for i := range r.parts {
		kin += 0.5 * r.parts[i].Mass * r.parts[i].Vel.Norm2()
		pot += 0.5 * r.parts[i].Mass * r.pot[i]
	}
	return kin, pot
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
