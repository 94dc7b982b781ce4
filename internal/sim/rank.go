package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bonsai/internal/body"
	"bonsai/internal/domain"
	"bonsai/internal/globtree"
	"bonsai/internal/keys"
	"bonsai/internal/lettree"
	"bonsai/internal/mpi"
	"bonsai/internal/obs"
	"bonsai/internal/octree"
	"bonsai/internal/par"
	"bonsai/internal/psort"
	"bonsai/internal/vec"
)

// rank is one simulated MPI process with one simulated GPU. Its step
// pipeline reproduces the paper's: SFC sort → domain update → tree build →
// tree properties → boundary allgather → local gravity overlapped with the
// LET exchange → integration.
type rank struct {
	cfg  *Config
	comm *mpi.Comm

	parts []body.Particle // local particles, Morton-sorted after sortBuild
	grid  keys.Grid
	dec   domain.Decomposition

	// SoA views rebuilt each step (tree order == parts order).
	pos    []vec.V3
	mass   []float64
	mk     []keys.Key
	acc    []vec.V3
	pot    []float64 // self-gravity potential only
	extPot []float64 // external analytic field potential (empty when unset)

	tree   *octree.Tree
	groups []octree.Group

	// Scratch reused across steps (per-rank, single-writer): the sort's key
	// slice and Sorter (ping-pong buffer + radix histograms), the particle
	// reorder target and the persistent fill callback of the fused
	// sort+build, the domain phase's Hilbert keys and work weights, and the
	// tree pipeline's cell arenas. Together these make the steady-state
	// sort+build/domain-keys/groups phases allocation-free.
	kv      []psort.KV
	sorter  psort.Sorter
	spare   []body.Particle
	fill    func(lo, hi int)
	hk      []keys.Key
	weights []float64
	ts      octree.BuildScratch

	// Observability (all nil when tracing is disabled): the rank's span
	// buffer, the shared histogram set, the current evaluation sequence
	// number, and the evaluation-scoped LET arrival timestamps (obs-epoch
	// ns; written by the receiver goroutine, read by the compute thread
	// after the arrival channel drains).
	obs       *obs.RankRec
	met       *obs.Metrics
	eval      int
	arrivalNS []int64

	// Gravity-phase scratch reused across evaluations: per-peer remote trees,
	// push decisions and LET byte counts, and the ready set of banked trees.
	boundaries   []*lettree.LET
	sendBoundary []bool
	sentBytes    []int64
	ready        []octree.Source

	// step-scoped
	stats RankStats

	// Block-timestep state (Config.BlockSteps; see block.go). sub is the
	// current substep barrier, rungPop the allreduced global rung
	// population, buildPos/minLeaf/maxDrift2 the tree-reuse drift bound,
	// and the a* slices the compact gather buffers for active-subset walks.
	sub        int
	rungPop    []float64
	popScratch []float64
	buildPos   []vec.V3
	minLeaf    float64
	maxDrift2  float64
	treeOK     bool
	restored   bool // rungs/substep restored from a snapshot: skip the priming rung assignment
	primedStep bool // the current top-level step ran a priming evaluation
	blockEvals []blockEval
	stepAccum  RankStats
	stepSub    int // substep evaluations accumulated into stepAccum
	stepReb    int // tree rebuilds accumulated into stepAccum
	stepActive float64
	stepTotal  float64
	active     []int32
	apos       []vec.V3
	amass      []float64
	aacc       []vec.V3
	apot       []float64
	aext       []float64
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
	ext    []float64
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

const (
	tagLETBase      = 1 << 20        // user-tag space for LET pushes, offset by step parity
	tagBoundaryBase = tagLETBase + 2 // boundary-tree pushes (overlapped mode), offset by step parity
)

// stepForces runs the full force pipeline for one step and leaves
// accelerations/potentials in r.acc/r.pot (aligned with r.parts).
// domainUpdate selects whether this evaluation re-decomposes and exchanges
// particles; the caller (the Node) owns the domain-epoch schedule so
// that the t=0 priming evaluation and the first post-drift evaluation do not
// both pay for a decomposition in the same step. eval is the global force-
// evaluation sequence number, used only to tag trace spans (a step can run
// two evaluations when it primes t=0 accelerations).
func (r *rank) stepForces(step, eval int, domainUpdate bool) {
	r.stats = RankStats{}
	r.eval = eval
	t0 := time.Now()

	r.buildPipeline(step, eval, domainUpdate)

	// --- Gravity: local tree walk overlapped with the LET exchange, then
	// the eps/G/external post-processing, all over the full particle set.
	t := r.fullTargets()
	r.gravity(step%2, &t)
	r.finishForces(&t)
	r.extPot = t.ext

	r.stats.Times.Total = time.Since(t0)
	r.stats.Times.DeriveOther()
	r.stats.NLocal = len(r.parts)

	// Per-particle work weights for the next decomposition: rank-level flop
	// balancing as in the paper (§III.B.1).
	if n := len(r.parts); n > 0 {
		w := r.stats.Grav.Flops() / float64(n)
		for i := range r.parts {
			r.parts[i].Weight = w
		}
	}
}

// fullTargets points a walkTargets at the rank's full tree-ordered arrays —
// every local particle is a walk target. The advertised box is recomputed
// from the particles: sufficiency checks and LET construction must see the
// box that actually bounds the targets the groups were built from.
func (r *rank) fullTargets() walkTargets {
	return walkTargets{
		groups: r.groups,
		pos:    r.pos,
		mass:   r.mass,
		acc:    r.acc,
		pot:    r.pot,
		ext:    r.extPot,
		box:    body.Bounds(r.parts),
	}
}

// buildPipeline runs the tree side of a force evaluation: global bounding
// box and key grid, the (optional) domain update, the fused Morton sort +
// octree construction, and multipoles + target groups.
func (r *rank) buildPipeline(step, eval int, domainUpdate bool) {
	// --- Global bounding box and key grid.
	gbox := domain.GlobalBox(r.comm, body.Bounds(r.parts))
	r.grid = keys.NewGrid(gbox)

	// --- Domain update (decomposition + exchange) every DomainFreq steps.
	tD := time.Now()
	if domainUpdate {
		// Hilbert keys and work weights go into rank scratch (not fresh
		// slices): the decomposition only reads them during the collective
		// call, so reuse across domain epochs is safe. The key loop is the
		// expensive part (Skilling transpose per particle) and is chunked
		// over the rank's workers.
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
		r.dec = domain.SampleDecompose(r.comm, hk, weights, domain.Options{PX: r.cfg.PX})
		if r.cfg.SnapLevel > 0 {
			// Align domain boundaries with the global octree lattice
			// (§III.B.1: domains as branches of a hypothetical global
			// octree, binary-consistent across process counts).
			r.dec = r.dec.SnapToLevel(r.cfg.SnapLevel)
		}
		r.parts = domain.Exchange(r.comm, r.dec, r.parts, r.grid)
	}
	r.stats.Times.Domain = time.Since(tD)
	r.obs.Span(eval, obs.PhaseDomain, obs.LaneCompute, 0, tD, tD.Add(r.stats.Times.Domain), 0)

	// --- Fused Morton sort + tree construction: the MSD octant partition
	// emits the tree top while sorting, and frontier ranges finish (sort
	// tail, payload permute, subtree build) concurrently in the rank's
	// reusable arenas, stitched back to the exact serial layout.
	tS := time.Now()
	r.sortBuild()
	r.stats.Times.SortBuild = time.Since(tS)
	r.obs.Span(eval, obs.PhaseSortBuild, obs.LaneCompute, 0, tS, tS.Add(r.stats.Times.SortBuild), 0)

	// --- Tree properties (multipoles) and target groups, both multicore.
	tP := time.Now()
	r.tree.ComputePropertiesParallel(r.cfg.WorkersPerRank)
	r.groups = r.tree.MakeGroupsScratch(r.cfg.NGroup, r.cfg.WorkersPerRank, r.groups)
	r.stats.Times.TreeProps = time.Since(tP)
	r.obs.Span(eval, obs.PhaseTreeProps, obs.LaneCompute, 0, tP, tP.Add(r.stats.Times.TreeProps), 0)
}

// sortBuild computes Morton keys and runs the fused MSD sort + octree
// construction: one octree.SortBuildScratch call sorts the keys, reorders
// r.parts (and the SoA views) into key order, and builds the tree, all
// through the rank's scratch buffers. The payload permute runs inside the
// builder's fill callback, once per finished key range — from concurrent
// workers when WorkersPerRank > 1 — with every call writing disjoint
// indices, so the result is independent of the worker count.
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

	r.spare = resize(r.spare, n)
	r.mk = resize(r.mk, n)
	r.pos = resize(r.pos, n)
	r.mass = resize(r.mass, n)
	r.acc = resize(r.acc, n)
	r.pot = resize(r.pot, n)
	if r.fill == nil {
		// The persistent closure keeps the steady-state path allocation
		// free. It reads the rank's buffers at call time: during the build
		// r.parts is still the unsorted array and r.spare the reorder
		// target (the swap below happens after the build returns).
		r.fill = func(lo, hi int) {
			kv, parts, spare := r.kv, r.parts, r.spare
			psort.Permute(kv[lo:hi], parts, spare[lo:hi])
			for i := lo; i < hi; i++ {
				r.mk[i] = keys.Key(kv[i].Key)
				r.pos[i] = spare[i].Pos
				r.mass[i] = spare[i].Mass
				r.acc[i] = vec.V3{}
				r.pot[i] = 0
			}
		}
	}
	r.tree = octree.SortBuildScratch(&r.ts, &r.sorter, kv, r.mk, r.pos, r.mass,
		r.grid, r.cfg.NLeaf, workers, r.fill)
	r.parts, r.spare = r.spare, r.parts
}

// gravity performs the overlapped local + LET force computation, the paper's
// three-role pipeline (§III.B.3): a receiver goroutine drains incoming full
// LETs into a channel as they arrive, a pool of builder goroutines constructs
// and pushes outgoing LETs, and the compute side walks the local tree in
// chunks, polling between them. Remote trees are never walked one by one: a
// boundary tree judged sufficient, or an arrived full LET, is banked in the
// ready set, and a batched pass (flush) walks everything banked so far as ONE
// merged interaction list per target group (octree.WalkSources): a few long
// kernel lists instead of p−1 short ones. The flush policy is fixed: never
// while local groups are pending; once after the local walk; then once per
// wake-up of the straggler wait. Config.SerialLET removes all overlap —
// builds before the walk, receives strictly after, one flush in
// ascending-peer order — as the deterministic baseline.
//
// The target side (groups, their SoA views, outputs, and the advertised box)
// comes from t: the full pipeline passes every local particle, block-timestep
// substeps pass only the active subset. tagPar is the message-tag parity that
// separates consecutive gravity phases' traffic (step parity for global-dt
// runs, evaluation parity for block runs, where one step holds many phases).
func (r *rank) gravity(tagPar int, t *walkTargets) {
	p, me := r.comm.Size(), r.comm.Rank()
	theta, eps2 := r.cfg.Theta, r.cfg.Eps*r.cfg.Eps
	tag := tagLETBase + tagPar

	// --- Boundary tree exchange. The SerialLET baseline keeps the blocking
	// allgather, fully exposing the exchange cost. The overlapped mode
	// pipelines the exchange itself: the local boundary tree is pushed
	// point-to-point and arrivals are processed between local-walk chunks,
	// so the exchange hides behind the walk just like the LET traffic it
	// gates. With Config.GlobalTree > 0 the exchange is also hierarchical:
	// a shared coarse global octree decides, per pair, whether any boundary
	// tree needs to move at all.
	tB := time.Now()
	myBoundary := lettree.BoundaryTree(r.tree, r.cfg.BoundaryDepth, t.box)
	boundaries := resize(r.boundaries, p) // all nil: cleared when the phase ends
	r.boundaries = boundaries
	boundaries[me] = myBoundary

	// Coarse global octree (Config.GlobalTree levels K > 0): one ring
	// allgather of tiny depth-K boundary-tree prefixes plus octant occupancy
	// histograms replaces the all-to-all boundary exchange for distant
	// pairs. Every rank merges the same contributions into the same coarse
	// tree and evaluates the same MAC predicates, so the pruning decisions
	// are symmetric and handshake-free like the rest of the push protocol.
	// A coarse contribution is a bit-exact prefix of the full boundary tree
	// (K ≤ BoundaryDepth is enforced by the config): when it is sufficient
	// for our targets, walking it yields bitwise the accelerations the full
	// boundary tree would have, and the pair exchanges nothing at all.
	var glob *globtree.Global
	var sendBoundary []bool // j's coarse view of us is insufficient: push our boundary
	nearRecv := 0           // full boundary trees en route to us
	if K := r.cfg.GlobalTree; K > 0 && p > 1 {
		contrib := globtree.Extract(r.tree, K, t.box)
		all := mpi.AllgatherRing(r.comm, contrib, (*globtree.Contribution).WireBytes)
		glob = globtree.Merge(all, K)
		sendBoundary = resize(r.sendBoundary, p)
		r.sendBoundary = sendBoundary
		clear(sendBoundary)
		// With K == BoundaryDepth the coarse contribution IS the boundary
		// tree (identical construction), so the allgather already delivered
		// every boundary and no pair needs a separate push at all.
		dedup := K >= r.cfg.BoundaryDepth
		for j := 0; j < p; j++ {
			if j == me {
				continue
			}
			if dedup {
				boundaries[j] = glob.Coarse(j)
				if glob.Sufficient(j, t.box, theta) {
					r.stats.GlobalServed++
				}
				continue
			}
			if !glob.Sufficient(me, glob.Box(j), theta) {
				sendBoundary[j] = true
				r.stats.BoundarySent++
			}
			if glob.Sufficient(j, t.box, theta) {
				// Distant pair: j's coarse tree serves every target we have.
				boundaries[j] = glob.Coarse(j)
				r.stats.GlobalServed++
			} else {
				nearRecv++
			}
		}
		r.stats.GlobBytes += int64(glob.WireBytes())
	}

	if r.cfg.SerialLET {
		if glob == nil {
			boundaries = mpi.Allgather(r.comm, myBoundary, myBoundary.WireBytes())
			r.stats.BoundarySent += p - 1
			r.stats.LETBytesSent += int64(myBoundary.WireBytes()) * int64(p-1)
		} else {
			// Hierarchical exchange: full boundary trees move only within
			// the MAC-determined neighborhood, received in deterministic
			// (ascending peer) order. Sends are eager, so every rank posts
			// its pushes before blocking on receives — no deadlock.
			btag := tagBoundaryBase + tagPar
			for j := 0; j < p; j++ {
				if sendBoundary[j] {
					r.comm.Send(j, btag, myBoundary, myBoundary.WireBytes())
					r.stats.LETBytesSent += int64(myBoundary.WireBytes())
				}
			}
			for j := 0; j < p; j++ {
				if j != me && boundaries[j] == nil {
					boundaries[j] = r.comm.Recv(j, btag).(*lettree.LET)
				}
			}
		}
	} else {
		btag := tagBoundaryBase + tagPar
		for j := 0; j < p; j++ {
			if j == me || (glob != nil && !sendBoundary[j]) {
				continue
			}
			r.comm.Send(j, btag, myBoundary, myBoundary.WireBytes())
			r.stats.LETBytesSent += int64(myBoundary.WireBytes())
		}
		if glob == nil {
			r.stats.BoundarySent += p - 1
		}
	}
	boundaryTime := time.Since(tB)
	r.obs.Span(r.eval, obs.PhaseBoundary, obs.LaneCompute, 0, tB, tB.Add(boundaryTime), 0)

	var localWalk, letWalk, waitTime time.Duration
	var recvIdle atomic.Int64 // nanoseconds the receiver spent blocked

	// --- LET construction: build and push a full LET to destination j.
	// BuildFor only reads the local tree and j's (already stored) boundary
	// box, so builds are safe alongside each other and alongside the
	// compute walks. In the SerialLET baseline there is no communication
	// thread at all: LETs are built and pushed on the compute thread ahead
	// of the local walk, and that time is exactly the communication cost
	// the pipeline would hide.
	sentBytes := resize(r.sentBytes, p)
	r.sentBytes = sentBytes
	clear(sentBytes)
	buildLET := func(j, worker int) {
		var tb time.Time
		if r.obs != nil {
			tb = time.Now()
		}
		let := lettree.BuildFor(r.tree, boundaries[j].Box, theta, t.box)
		r.comm.Send(j, tag, let, let.WireBytes())
		sentBytes[j] = int64(let.WireBytes())
		if r.obs != nil {
			lane := obs.LaneBuilder
			if r.cfg.SerialLET {
				lane = obs.LaneCompute
			}
			r.obs.Span(r.eval, obs.PhaseLETBuild, lane, worker, tb, time.Now(), int64(j))
		}
	}
	done := make(chan struct{})

	// The ready set and its batched pass. bank adds one remote tree — a
	// boundary (or coarse) tree judged sufficient, or a received full LET —
	// and flush walks everything banked in one call: a walk:let span if a
	// full LET is among them, else walk:boundary, carrying the tree count.
	ready, readyLETs := r.ready[:0], 0
	bank := func(l *lettree.LET, full bool) {
		ready = append(ready, l)
		if full {
			readyLETs++
			r.stats.LETsRecv++
		} else {
			r.stats.BoundaryUsed++
		}
	}
	flush := func() {
		if len(ready) == 0 {
			return
		}
		ph := obs.PhaseWalkBound
		if readyLETs > 0 {
			ph = obs.PhaseWalkLET
		}
		tW := time.Now()
		forced := octree.WalkSources(ready, t.groups, t.pos, theta, eps2,
			t.acc, t.pot, r.cfg.WorkersPerRank, &r.stats.Grav, r.met.ListLenHist())
		d := time.Since(tW)
		letWalk += d
		r.obs.Span(r.eval, ph, obs.LaneCompute, 0, tW, tW.Add(d), int64(len(ready)))
		r.met.LETWalkHist().ObserveDuration(d)
		if forced != 0 {
			panic(fmt.Sprintf("sim: rank %d: %d remote trees (%d received LETs, the rest boundary trees judged sufficient) forced %d accepts",
				me, len(ready), readyLETs, forced))
		}
		clear(ready)
		ready, readyLETs = ready[:0], 0
	}

	// recordArrival notes a full LET's arrival for the hidden-vs-straggler
	// analysis: a trace instant plus the epoch timestamp the offsets are
	// computed from once the local walk's completion time is known. Called
	// by whichever goroutine performed the receive, always before the LET
	// is handed to the compute side.
	recordArrival := func(at time.Time, from int, lane obs.Lane) {
		r.obs.Mark(r.eval, obs.PhaseArrive, lane, at, int64(from))
		r.arrivalNS = append(r.arrivalNS, r.obs.Since(at))
	}

	// walkEndNS is the obs-epoch timestamp of local-walk completion; LET
	// arrival offsets (the Fig. 5 hidden-vs-straggler signal) are measured
	// against it at the end of the phase.
	var walkEndNS int64
	markWalkDone := func() {
		if r.obs == nil {
			return
		}
		now := time.Now()
		r.obs.Mark(r.eval, obs.PhaseWalkDone, obs.LaneCompute, now, 0)
		walkEndNS = r.obs.Since(now)
	}

	if r.cfg.SerialLET {
		// Builds on the compute thread, ahead of the walk: the no-overlap
		// baseline. Both sides of each pair evaluate the same predicate on
		// the same allgathered data, so no handshake is needed (the paper's
		// symmetric double-check). boundaries[j] is j's boundary tree or,
		// for distant pairs under the global tree, its coarse tree: a
		// bit-exact, pre-vetted prefix, so the predicates read identically.
		tS := time.Now()
		for j := 0; j < p; j++ {
			if j != me && !lettree.Sufficient(myBoundary, boundaries[j].Box, theta) {
				buildLET(j, 0)
				r.stats.LETsSent++
			}
		}
		waitTime += time.Since(tS)
		close(done)

		// Baseline ordering: full local walk, then every remote tree in
		// ascending peer order — its boundary tree where that suffices, else
		// a blocking receive of its full LET — and one flush. The fixed order
		// fixes each group's merged list and so the accelerations bitwise,
		// which is what lets the pruned exchange be fuzzed for exact
		// equivalence. Sends are eager, so the receives cannot deadlock.
		tL := time.Now()
		r.tree.WalkObs(t.groups, t.pos, theta, eps2, t.acc, t.pot,
			r.cfg.WorkersPerRank, &r.stats.Grav, r.met.ListLenHist())
		localWalk = time.Since(tL)
		r.obs.Span(r.eval, obs.PhaseWalkLocal, obs.LaneCompute, 0, tL, tL.Add(localWalk), int64(len(t.groups)))
		markWalkDone()
		for j := 0; j < p; j++ {
			switch {
			case j == me:
			case lettree.Sufficient(boundaries[j], myBoundary.Box, theta):
				bank(boundaries[j], false)
			default:
				tR := time.Now()
				msg := r.comm.Recv(j, tag)
				d := time.Since(tR)
				waitTime += d
				if r.obs != nil {
					r.obs.Span(r.eval, obs.PhaseWaitLET, obs.LaneCompute, 0, tR, tR.Add(d), int64(j))
					recordArrival(tR.Add(d), j, obs.LaneCompute)
				}
				bank(msg.(*lettree.LET), true)
			}
		}
		flush()
	} else {
		// --- Overlapped mode. Boundaries are processed the moment they
		// arrive (between local-walk chunks): each one immediately yields
		// the pairwise sufficiency decisions — feeding the LET-builder pool
		// without waiting for the slowest peer — and sufficient boundary
		// trees are banked as guaranteed work for the first batched pass.
		btag := tagBoundaryBase + tagPar
		bLeft := p - 1 // boundaries still in flight
		if glob != nil {
			bLeft = nearRecv // distant peers were pruned: nothing in flight from them
		}
		expectFrom := 0 // full LETs that will arrive for us (grows as boundaries land)
		letsSent := 0
		jobs := make(chan int, p)     // full-LET destinations, fed per arrival
		letCount := make(chan int, 1) // final expectFrom for the receiver goroutine
		// settle runs j's two pairwise predicates once its boundary (or
		// coarse) tree is known: a full LET is owed whenever our boundary
		// tree alone cannot serve j's targets, and j's tree either banks or
		// announces a full LET en route. The boundaries[j] store
		// happens-before the jobs send, so builders read the box safely.
		settle := func(j int) {
			if !lettree.Sufficient(myBoundary, boundaries[j].Box, theta) {
				letsSent++
				jobs <- j // never blocks: cap p, at most p-1 jobs
			}
			if lettree.Sufficient(boundaries[j], myBoundary.Box, theta) {
				bank(boundaries[j], false)
			} else {
				expectFrom++
			}
		}
		// Pairs prefilled from the allgathered coarse data settle at once.
		// With K < BoundaryDepth only mutually-distant peers are prefilled
		// and both predicates settle the cheap way (monotonicity of the MAC
		// over depth-truncation); with K == BoundaryDepth every peer is
		// prefilled and near pairs exchange full LETs directly.
		for j := range boundaries {
			if j != me && boundaries[j] != nil {
				settle(j)
			}
		}
		processBoundary := func(from int, bt *lettree.LET) {
			boundaries[from] = bt
			settle(from)
			if bLeft--; bLeft == 0 {
				close(jobs)
				letCount <- expectFrom
			}
		}
		if bLeft == 0 { // single rank or fully prefilled: no boundaries in flight
			close(jobs)
			letCount <- expectFrom
		}

		// Builder pool: consumes destinations as boundaries arrive, so
		// construction starts while most peers are still walking. steal is
		// the compute thread's private view of the queue: it is nilled out
		// once drained (a nil channel never matches in a select), while the
		// builders keep ranging over jobs itself.
		steal := jobs
		var bwg sync.WaitGroup
		for w := 0; w < r.cfg.letBuilders(p-1); w++ {
			bwg.Add(1)
			go func(w int) {
				defer bwg.Done()
				for j := range jobs {
					buildLET(j, w)
				}
			}(w)
		}
		go func() { bwg.Wait(); close(done) }()

		// Receiver goroutine: drains the mailbox as messages arrive so a LET
		// is ready for the compute side the moment the sender pushes it. It
		// learns how many LETs to expect once the compute side has processed
		// every boundary.
		arrivals := make(chan *lettree.LET, p) // never blocks the receiver: at most p-1 LETs arrive
		go func() {
			defer close(arrivals)
			for k := <-letCount; k > 0; k-- {
				tR := time.Now()
				from, msg := r.comm.RecvAny(tag)
				recvIdle.Add(int64(time.Since(tR)))
				if r.obs != nil {
					now := time.Now()
					r.obs.Span(r.eval, obs.PhaseRecvWait, obs.LaneReceiver, 0, tR, now, int64(from))
					// The append happens-before the channel send below,
					// and the compute thread reads arrivalNS only after
					// draining the closed channel: no race.
					recordArrival(now, from, obs.LaneReceiver)
				}
				arrivals <- msg.(*lettree.LET)
			}
		}()

		// drain banks, without blocking, every LET already handed over.
		drain := func() (n int) {
			for arrivals != nil {
				select {
				case l, ok := <-arrivals:
					if !ok {
						arrivals = nil
						break
					}
					bank(l, true)
					n++
				default:
					return n
				}
			}
			return n
		}

		// Compute: interleave local-tree chunks with boundary processing and
		// the banking of arrived LETs; nothing remote is walked while local
		// groups are pending. Chunks are sized to give the pipeline regular
		// poll points while keeping each chunk wide enough to feed the walk
		// worker pool.
		chunk := (len(t.groups) + 15) / 16
		if chunk < r.cfg.WorkersPerRank {
			chunk = r.cfg.WorkersPerRank
		}
		pending := t.groups
		for len(pending) > 0 {
			if bLeft > 0 {
				if from, msg, ok := r.comm.TryRecvAny(btag); ok {
					processBoundary(from, msg.(*lettree.LET))
					continue
				}
			}
			r.stats.LETsOverlapped += drain()
			n := min(chunk, len(pending))
			tL := time.Now()
			r.tree.WalkObs(pending[:n], t.pos, theta, eps2, t.acc, t.pot,
				r.cfg.WorkersPerRank, &r.stats.Grav, r.met.ListLenHist())
			d := time.Since(tL)
			localWalk += d
			r.obs.Span(r.eval, obs.PhaseWalkLocal, obs.LaneCompute, 0, tL, tL.Add(d), int64(n))
			pending = pending[n:]
		}
		markWalkDone()

		// Boundaries that still haven't arrived gate the rest of the phase
		// (until they land we don't know which peers owe us a LET); the
		// blocked time is exposed boundary-exchange cost.
		for bLeft > 0 {
			tR := time.Now()
			from, msg := r.comm.RecvAny(btag)
			d := time.Since(tR)
			boundaryTime += d
			r.obs.Span(r.eval, obs.PhaseBoundary, obs.LaneCompute, 0, tR, tR.Add(d), int64(from))
			processBoundary(from, msg.(*lettree.LET))
		}

		// Batched passes. The first walks the banked boundary trees plus
		// every LET that has already arrived; after it, each wake-up of the
		// straggler wait drains whatever else arrived meanwhile and flushes
		// again. While blocked the compute thread steals queued LET-build
		// jobs from its own pool — finishing sends sooner helps the peers
		// this rank is waiting on.
		for {
			drain()
			flush()
			if arrivals == nil {
				break
			}
			tR := time.Now()
			select {
			case l, ok := <-arrivals:
				if !ok {
					arrivals = nil
					break
				}
				d := time.Since(tR)
				waitTime += d
				r.obs.Span(r.eval, obs.PhaseWaitLET, obs.LaneCompute, 0, tR, tR.Add(d), 0)
				bank(l, true)
			case j, ok := <-steal:
				if !ok {
					steal = nil // nil channel: case blocks from now on
				} else {
					buildLET(j, 0)
				}
			}
		}

		// Builds still queued have no receiver left to overlap with: run them
		// here instead of idling in <-done (jobs is closed, the range ends).
		if steal != nil {
			for j := range steal {
				buildLET(j, 0)
			}
		}
		r.stats.LETsSent += letsSent
	}

	// Wait for our own sends to finish building (they overlap the walks).
	tWd := time.Now()
	<-done
	dWd := time.Since(tWd)
	waitTime += dWd
	r.obs.Span(r.eval, obs.PhaseWaitLET, obs.LaneCompute, 0, tWd, tWd.Add(dWd), -1)
	for _, b := range sentBytes {
		r.stats.LETBytesSent += b
	}

	// Fold the evaluation's LET arrivals into the arrival-offset histogram:
	// arrival time minus local-walk completion, negative when communication
	// was fully hidden behind the walk, positive when the compute side had to
	// wait (a straggler sender). All receiver-goroutine appends to arrivalNS
	// happened-before the channel receives the loops above completed.
	if r.obs != nil {
		worst := int64(math.MinInt64)
		for _, a := range r.arrivalNS {
			off := a - walkEndNS
			r.met.LETArrivalHist().Observe(off)
			if off > worst {
				worst = off
			}
		}
		if n := len(r.arrivalNS); n > 0 {
			r.stats.WorstArrival = time.Duration(worst)
			r.stats.ArrivalsSeen = n
		}
		r.arrivalNS = r.arrivalNS[:0]
	}

	clear(r.boundaries) // the scratch must not keep the peers' trees alive between phases
	r.ready = ready
	r.stats.Times.GravLocal = localWalk
	r.stats.Times.GravLET = letWalk
	r.stats.Times.NonHiddenComm = boundaryTime + waitTime
	r.stats.RecvIdle = time.Duration(recvIdle.Load())
}

// finishForces applies the target-local post-processing of a gravity phase:
// the softened self-interaction fix, the G scaling, and the static external
// field, and then panics with a *NonFiniteForceError if any target's result
// is not finite. It operates purely on t's arrays, so it serves both the full
// pipeline (t aliases the rank's tree-ordered slices) and active-subset
// evaluations (t aliases the compact gather buffers). The caller stores
// t.ext back into the matching rank slice — finishForces may reallocate it.
func (r *rank) finishForces(t *walkTargets) {
	// Remove the softened self-interaction contributed by each particle's
	// own leaf (acc contribution is exactly zero; potential is -m/ε).
	if r.cfg.Eps > 0 {
		for i := range t.pot {
			t.pot[i] += t.mass[i] / r.cfg.Eps
		}
	}

	// Scale by the unit system's gravitational constant (forces and
	// potentials are linear in G; kernels compute the G=1 sums).
	if g := r.cfg.G; g != 1 {
		for i := range t.acc {
			t.acc[i] = t.acc[i].Scale(g)
			t.pot[i] *= g
		}
	}

	// Static external field (analytic halo; §I "type 1" simulations). The
	// field potential is kept in its own slice: t.pot stays the physical
	// self-gravity potential (reported by Accelerations), while Energy sums
	// ½·self + ext, the ½ applying only to the pairwise part.
	if ext := r.cfg.External; ext != nil {
		t.ext = resize(t.ext, len(t.pos))
		for i := range t.acc {
			a, ep := ext(t.pos[i])
			t.acc[i] = t.acc[i].Add(a)
			t.ext[i] = ep
		}
	} else {
		t.ext = t.ext[:0]
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
// force evaluation to the running sums. The pairwise self-gravity potential
// is halved (each pair is counted twice by the per-particle sums); the
// external-field potential, if any, enters at full weight.
func (r *rank) energy(kin, pot float64) (float64, float64) {
	ext := len(r.extPot) == len(r.parts) && len(r.extPot) > 0
	for i := range r.parts {
		kin += 0.5 * r.parts[i].Mass * r.parts[i].Vel.Norm2()
		pot += 0.5 * r.parts[i].Mass * r.pot[i]
		if ext {
			pot += r.parts[i].Mass * r.extPot[i]
		}
	}
	return kin, pot
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
