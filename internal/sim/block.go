package sim

// The integrator: hierarchical power-of-two block timesteps, the
// individual-timestep scheme of GADGET-style tree-codes adapted to the
// paper's distributed pipeline, whose one-rung case is the paper's
// shared-step leapfrog. A top-level step of length DT is cut into a grid of
// S = 2^MaxRungs substeps of length h = DT/S; particle i integrates at
// dt_i = DT/2^rung_i with the rung chosen from the acceleration criterion
// dt_i ≈ EtaDT·sqrt(Softening/|a_i|), snapped down to the nearest power-of-two
// fraction of DT. A substep advances the system between consecutive OCCUPIED
// barriers: only the particles whose rung has a kick barrier there receive
// forces (the "active block"); everything else drifts. Because every
// particle's drift velocity is constant between its own kicks, drifting ALL
// particles synchronously at every substep is exact — it keeps the whole
// system at one shared time, which the force evaluation needs anyway (the
// active block feels forces from every particle, at the current time). Every
// advance runs to the top-of-step barrier, where all particles are
// synchronized again.
//
// Distributed determinism: each rank holds an allreduced copy of the global
// rung population (rungPop), so every rank computes the same next occupied
// barrier, the same active/total counts, and the same full-vs-subset path
// choice with no further handshakes. Rung updates happen only at a
// particle's own kick barriers (coarsening additionally requires the coarser
// rung to be aligned at the barrier), so the population evolves identically
// everywhere.
//
// Tree reuse: across the substeps of one step, the Morton order and cell
// structure of the octree are kept and only the multipoles are recomputed on
// the drifted positions (Tree.RefreshProperties). A full rebuild runs at
// top-of-step barriers, after a domain exchange, and whenever any rank's
// accumulated drift since the last build exceeds driftFrac of its smallest
// leaf-cell side — a collective vote, so every rank rebuilds together and
// the collective call sequence stays aligned.
//
// With MaxRungs == 0 the grid has a single substep, every particle is active
// at every barrier, every evaluation takes the full rebuild+walk path, and
// the kick/drift arithmetic is the shared-step kick-drift-kick's exactly.

import (
	"math"
	"time"

	"bonsai/internal/mpi"
	"bonsai/internal/obs"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// driftFrac is the tree-reuse bound: a rebuild is voted once any particle
// has drifted farther than driftFrac × (smallest leaf-cell side) from its
// position at build time. 0.25 keeps multipole and MAC errors from drifted
// cell contents well under the opening-angle error budget while letting
// typical substeps reuse the tree.
const driftFrac = 0.25

// activeAt reports whether a particle on the given rung has a kick barrier
// at substep s of an S-substep grid: rung k kicks every S>>k substeps, a
// power of two, so the test is a mask.
func activeAt(rung uint8, s, S int) bool { return s&(S>>rung-1) == 0 }

// rungFor snaps the acceleration timestep criterion to a rung:
// the largest k ≤ MaxRungs with DT/2^k ≤ EtaDT·sqrt(Softening/|a|), found by
// halving (no logarithms: the loop is exact and deterministic across
// platforms). Zero or non-finite accelerations park on rung 0.
func (r *rank) rungFor(a vec.V3) uint8 {
	max := r.cfg.MaxRungs
	if max <= 0 {
		return 0
	}
	an := a.Norm()
	if an == 0 || math.IsNaN(an) || math.IsInf(an, 0) {
		return 0
	}
	want := r.cfg.EtaDT * math.Sqrt(r.cfg.Softening/an)
	k, dt := 0, r.cfg.DT
	for k < max && dt > want {
		dt /= 2
		k++
	}
	return uint8(k)
}

// assignRungs sets every particle's rung from its current acceleration —
// the fresh-start initialization after the priming force evaluation.
func (r *rank) assignRungs() {
	for i := range r.parts {
		r.parts[i].Rung = r.rungFor(r.acc[i])
	}
}

// updateRungs re-evaluates the rung of every particle active at barrier s
// from its freshly computed acceleration. Refining (larger rung, smaller dt)
// is always allowed at a particle's own barrier; coarsening moves one level
// at a time and only while the coarser rung also has a barrier at s, so a
// particle never skips a kick it already owes.
func (r *rank) updateRungs(s, S int) {
	for i := range r.parts {
		cur := r.parts[i].Rung
		if !activeAt(cur, s, S) {
			continue
		}
		want := r.rungFor(r.acc[i])
		if want >= cur {
			r.parts[i].Rung = want
			continue
		}
		k := cur
		for k > want && activeAt(k-1, s, S) {
			k--
		}
		r.parts[i].Rung = k
	}
}

// reduceRungPop allreduces the local rung histogram so every rank holds the
// same global population. The result slice is shared between in-process
// ranks and must be treated as read-only.
func (r *rank) reduceRungPop() {
	n := r.cfg.MaxRungs + 1
	r.popScratch = resize(r.popScratch, n)
	for k := range r.popScratch {
		r.popScratch[k] = 0
	}
	for i := range r.parts {
		r.popScratch[r.parts[i].Rung]++
	}
	r.rungPop = mpi.Allreduce(r.comm, r.popScratch, sumFloats, n*8)
}

// spread reports whether the global rung population holds any particle above
// rung 0. It reads the allreduced population, so every rank agrees.
func (r *rank) spread() bool {
	for _, n := range r.rungPop[1:] {
		if n > 0 {
			return true
		}
	}
	return false
}

// nextBoundary returns the next occupied barrier after substep s: the
// smallest multiple of any populated rung's kick period that lies ahead.
// Unpopulated rungs contribute no barriers, so a step with every particle on
// rung 0 runs exactly one substep regardless of MaxRungs.
func (r *rank) nextBoundary(s, S int) int {
	next := S
	for k, n := range r.rungPop {
		if n <= 0 {
			continue
		}
		p := S >> k
		if b := (s/p + 1) * p; b < next {
			next = b
		}
	}
	return next
}

// globalActive returns the globally-agreed number of particles active at
// barrier s and the global total, from the allreduced rung population. Both
// are 0 before the first reduction (MaxRungs == 0 never reduces), which
// callers treat as "everything is active".
func (r *rank) globalActive(s, S int) (active, total int) {
	for k, n := range r.rungPop {
		total += int(n)
		if activeAt(uint8(k), s, S) {
			active += int(n)
		}
	}
	return active, total
}

// trackBuild snapshots the tree-reuse reference state after a full rebuild:
// the build-time positions (drift is measured against them), the smallest
// leaf side (the drift bound's length scale), and a cleared drift maximum.
func (r *rank) trackBuild() {
	r.buildPos = append(r.buildPos[:0], r.pos...)
	r.minLeaf = r.tree.MinLeafSide()
	r.maxDrift2 = 0
}

// rebuildVote is the collective tree-reuse decision: each rank votes 1 when
// its accumulated drift exceeds the bound, and any vote forces a rebuild
// everywhere — the build is collective, so all ranks must take the same
// branch. It runs only at mid-step barriers, after the top-of-step rebuild
// set the reference state.
func (r *rank) rebuildVote() bool {
	local := 0.0
	if bound := driftFrac * r.minLeaf; r.maxDrift2 > bound*bound {
		local = 1
	}
	sum := mpi.Allreduce(r.comm, []float64{local}, sumFloats, 8)
	return sum[0] > 0
}

// blockForces runs one force evaluation at the given barrier: rebuild or
// refresh the tree, determine the active block, and walk gravity for the
// active targets only (the full tree-ordered arrays when everyone is
// active). With MaxRungs > 0 the record notes the barrier, whether the tree
// was rebuilt and the global active/total counts; a shared-step run leaves
// those fields zero. On return r.acc/r.pot are fresh for every active
// particle; inactive entries are unspecified (their stored accelerations are
// never used for kicks — each kick reads an acceleration computed at that
// same barrier).
func (r *rank) blockForces(step, eval int, domainUpdate, forceRebuild bool, boundary int) {
	r.stats = obs.StepMetrics{}
	r.eval = eval
	t0 := time.Now()
	S := 1 << r.cfg.MaxRungs
	hier := r.cfg.MaxRungs > 0
	if hier {
		r.stats.Substep, r.stats.Substeps = boundary, 1
	}

	// Path choice from the shared rung population: every rank agrees, so the
	// collective structure of the gravity phase stays symmetric.
	activeN, totalN := r.globalActive(boundary, S)
	r.stats.ActiveN, r.stats.TotalN = activeN, totalN
	full := totalN == 0 || activeN == totalN

	if forceRebuild || domainUpdate || r.rebuildVote() {
		r.buildPipeline(step, eval, domainUpdate)
		if hier {
			r.stats.Rebuilds = 1
			r.trackBuild()
		}
	} else {
		// Reuse the tree: same Morton order and cell structure, multipoles
		// recomputed on the drifted positions (r.pos tracks every drift).
		// A full-active walk targets the tree's groups, so their boxes are
		// recomputed on the drifted positions too: the walk's MAC and the
		// advertised box must bound where the targets are now.
		tP := time.Now()
		r.tree.RefreshProperties(r.cfg.WorkersPerRank)
		r.checkTreeMass()
		if full {
			r.groups = r.tree.MakeGroupsScratch(octree.DefaultNGroup, r.cfg.WorkersPerRank, r.groups)
		}
		r.stats.Times.TreeProps = time.Since(tP)
		r.obs.Span(eval, obs.PhaseTreeProps, obs.LaneCompute, 0, tP, tP.Add(r.stats.Times.TreeProps), 1)
	}

	if full {
		t := r.fullTargets()
		r.gravity(eval%2, &t)
		r.finishForces(&t)

		// Work weights feed the next decomposition; decompositions happen at
		// top-of-step barriers, which always take this full-active path. A
		// particle on rung k (dt = DT/2^k in this repo's convention) is
		// force-evaluated 2^k times per step, so it carries 2^k shares of the
		// rank's measured flops — the per-rung weighting that keeps the
		// sampling decomposition balancing evaluations, not particle counts
		// (the paper's flop balancing, §III.B.1). With MaxRungs == 0 every
		// share is 1 and this is the uniform weight flops/n bitwise.
		if n := len(r.parts); n > 0 {
			tot := 0.0
			for i := range r.parts {
				tot += float64(uint64(1) << r.parts[i].Rung)
			}
			per := r.stats.Stats.Flops() / tot
			for i := range r.parts {
				r.parts[i].Weight = per * float64(uint64(1)<<r.parts[i].Rung)
			}
		}
	} else {
		r.subsetForces(eval, boundary, S)
	}

	r.endEval(time.Since(t0))
}

// subsetForces walks gravity for the block active at barrier s only: gather
// the active particles, in Morton order, into the compact a* buffers, walk
// with the subset as targets, and scatter the results back. The targets are
// cut into fixed runs of the group size (GroupsOfScratch), not along the
// tree. A run of Morton-consecutive particles crosses cell boundaries, so its
// box is looser than a tree group's and it does more p-p work (+60% with
// every particle of an 8192-particle Plummer model active), but a run is
// always full, whereas a sparse active set cut along the tree falls into
// many small groups that each pay a whole traversal; the tree-aligned subset
// cut did not resolve on plummer_block_p2 (EXPERIMENTS.md, "Full target
// groups").
// The advertised box bounds only the active targets, so the
// boundary/LET exchange ships exactly the data the active walks need — a
// rank whose peers' active boxes are distant sends smaller LETs, and a rank
// with no active particles advertises an empty box, which every peer's
// sufficiency check accepts symmetrically without building anything.
func (r *rank) subsetForces(eval, s, S int) {
	// The active block in tree order, recomputed after any rebuild or
	// exchange, so the indices are current.
	r.active = r.active[:0]
	for i := range r.parts {
		if activeAt(r.parts[i].Rung, s, S) {
			r.active = append(r.active, int32(i))
		}
	}
	na := len(r.active)
	r.apos = resize(r.apos, na)
	r.amass = resize(r.amass, na)
	r.aacc = resize(r.aacc, na)
	r.apot = resize(r.apot, na)
	box := vec.EmptyBox()
	for j, i := range r.active {
		p := r.pos[i]
		r.apos[j] = p
		r.amass[j] = r.mass[i]
		r.aacc[j] = vec.V3{}
		r.apot[j] = 0
		box = box.Extend(p)
	}
	r.agroups = octree.GroupsOfScratch(r.apos, octree.DefaultNGroup, r.cfg.WorkersPerRank, r.agroups)

	t := walkTargets{
		groups: r.agroups,
		pos:    r.apos,
		mass:   r.amass,
		acc:    r.aacc,
		pot:    r.apot,
		box:    box,
		index:  r.active,
	}
	r.gravity(eval%2, &t)
	r.finishForces(&t)

	for j, i := range r.active {
		r.acc[i] = r.aacc[j]
		r.pot[i] = r.apot[j]
	}
}

// recordBlockEval closes the evaluation just run: its record takes the rung
// population after the barrier's update and joins the step's fold.
func (r *rank) recordBlockEval() {
	if r.rungPop != nil {
		r.stats.RungPop = make([]int, len(r.rungPop))
		for k, n := range r.rungPop {
			r.stats.RungPop[k] = int(n)
		}
	}
	r.stepSum.AddEval(&r.stats)
	r.keep()
}

// kick applies the half-kick of every particle with a barrier at s, with the
// acceleration the evaluation at s produced for exactly that block.
func (r *rank) kick(s, S int, h float64) {
	for i := range r.parts {
		if rung := r.parts[i].Rung; activeAt(rung, s, S) {
			dti := float64(S>>rung) * h / 2
			r.parts[i].Vel = r.parts[i].Vel.Add(r.acc[i].Scale(dti))
		}
	}
}

// blockAdvance advances this rank through one top-level step, from its
// top-of-step barrier to the next, substep by substep in lockstep with every
// other rank. first runs the priming evaluation before the first advance.
// Returns the next evaluation's sequence number.
func (r *rank) blockAdvance(step, eval int, first bool) int {
	S := 1 << r.cfg.MaxRungs
	h := r.cfg.DT / float64(S)
	hier := r.cfg.MaxRungs > 0

	if first {
		// Prime accelerations at the top-of-step barrier, with the domain
		// update when this step is an epoch.
		r.blockForces(step, eval, step%domainFreq == 0, true, 0)
		if hier {
			// Particles that arrive with rungs above 0 on any rank (a restart)
			// keep them; otherwise the primed accelerations assign them. The
			// population is allreduced, so every rank takes the same branch.
			r.reduceRungPop()
			if !r.spread() {
				r.assignRungs()
				r.reduceRungPop()
			}
		}
		r.recordBlockEval()
		eval++
	}

	for s := 0; s < S; {
		tSub := time.Now()

		// Opening half-kicks for the block active at s, then the synchronized
		// drift of EVERY particle to the next occupied barrier (exact: drift
		// velocity is constant between a particle's kicks).
		tI := time.Now()
		r.kick(s, S, h)
		next := r.nextBoundary(s, S)
		dtd := float64(next-s) * h
		for i := range r.parts {
			r.parts[i].Pos = r.parts[i].Pos.Add(r.parts[i].Vel.Scale(dtd))
		}
		if hier {
			// Keep the tree's position view current and account the drift
			// against the reuse bound.
			for i := range r.parts {
				p := r.parts[i].Pos
				r.pos[i] = p
				if d := p.Sub(r.buildPos[i]).Norm2(); d > r.maxDrift2 {
					r.maxDrift2 = d
				}
			}
		}
		r.obs.Span(eval, obs.PhaseIntegrate, obs.LaneCompute, 0, tI, time.Now(), 0)

		// Forces at the new barrier. The top-of-step barrier forces a rebuild
		// and carries the step's domain epoch, unless the priming evaluation
		// already decomposed this step: positions have only drifted within
		// it, so the decomposition is still fresh.
		domain := next == S && step%domainFreq == 0 && !first
		r.blockForces(step, eval, domain, next == S, next)

		// Closing half-kicks for the block active at next (recomputed inside
		// blockForces, after any rebuild or exchange).
		tC := time.Now()
		r.kick(next, S, h)
		r.obs.Span(eval, obs.PhaseIntegrate, obs.LaneCompute, 0, tC, time.Now(), 1)

		// Rung updates happen at a particle's own barriers only, then the
		// population is re-reduced so every rank agrees on the next barrier.
		if hier {
			r.updateRungs(next, S)
			r.reduceRungPop()
			r.obs.Span(eval, obs.PhaseSubstep, obs.LaneCompute, 0, tSub, time.Now(), int64(next))
		}
		r.recordBlockEval()
		eval++
		s = next
	}
	return eval
}
