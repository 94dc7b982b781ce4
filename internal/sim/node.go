package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"bonsai/internal/body"
	"bonsai/internal/domain"
	"bonsai/internal/mpi"
	"bonsai/internal/obs"
	"bonsai/internal/snapshot"
)

// Node drives ONE rank of a distributed simulation over an externally
// provided mpi.World: the only step driver in the package. Every process of a
// socket-transport run (cmd/bonsai's launcher) creates one Node per hosted
// rank and calls Step in lockstep; the in-process Simulation is p Nodes over a
// channel world, released together on p goroutines. Either way the collective
// structure of the pipeline keeps the ranks synchronized, so an 8-rank run
// over sockets reproduces the in-process one to within LET-arrival-order
// float jitter.
type Node struct {
	cfg   Config
	comm  *mpi.Comm
	r     *rank
	step  int
	evals int // completed force evaluations (tracing sequence number)
	time  float64
	first bool

	// Block-timestep summary of the last completed step (see BlockSummary).
	lastSub, lastReb int
	lastActiveFrac   float64

	// hold diverts this rank's per-evaluation metrics records from the
	// recorder's stream into held, for the owning Simulation to merge across
	// its ranks. A standalone Node streams them; the telemetry collector
	// merges across processes.
	hold bool
	held []obs.StepMetrics
}

// BlockSummary reports the block-timestep accounting of the most recent Step:
// substep force evaluations, full tree rebuilds among them, and the mean
// active fraction per evaluation. All zero on global-dt runs.
func (n *Node) BlockSummary() (substeps, rebuilds int, activeFrac float64) {
	return n.lastSub, n.lastReb, n.lastActiveFrac
}

// NewNode creates the driver for one rank. parts is this rank's initial
// slice of the global particle set; every rank of the world must receive the
// same Config and a consistent split of the global set ordered by rank (e.g.
// SliceForRank). cfg.Ranks must equal w.Size().
func NewNode(cfg Config, w *mpi.World, rankID int, parts []body.Particle) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Ranks != w.Size() {
		return nil, fmt.Errorf("sim: config has %d ranks, world has %d", cfg.Ranks, w.Size())
	}
	if cfg.Obs != nil && cfg.Obs.Ranks() != cfg.Ranks {
		return nil, fmt.Errorf("sim: recorder has %d rank buffers, world has %d", cfg.Obs.Ranks(), cfg.Ranks)
	}
	for i := range parts {
		if !parts[i].Pos.IsFinite() || !parts[i].Vel.IsFinite() ||
			math.IsNaN(parts[i].Mass) || math.IsInf(parts[i].Mass, 0) || parts[i].Mass < 0 {
			return nil, fmt.Errorf("sim: particle %d (id %d) has non-finite or negative state", i, parts[i].ID)
		}
	}
	local := make([]body.Particle, len(parts))
	copy(local, parts)
	n := &Node{
		cfg:   cfg,
		comm:  w.Comm(rankID),
		first: true,
	}
	n.r = &rank{
		cfg:   &n.cfg,
		comm:  n.comm,
		parts: local,
		dec:   domain.Uniform(cfg.Ranks),
		obs:   cfg.Obs.Rank(rankID),
		met:   cfg.Obs.Metrics(),
	}
	return n, nil
}

// SliceForRank cuts rank r's initial slice out of a global particle set by an
// even split — every process generates or loads the same global set and keeps
// only its share.
func SliceForRank(parts []body.Particle, r, ranks int) []body.Particle {
	lo := r * len(parts) / ranks
	hi := (r + 1) * len(parts) / ranks
	return parts[lo:hi]
}

// Rank returns the rank this node drives.
func (n *Node) Rank() int { return n.comm.Rank() }

// Ranks returns the world size.
func (n *Node) Ranks() int { return n.comm.Size() }

// Config returns the effective (default-filled) configuration.
func (n *Node) Config() Config { return n.cfg }

// PairBytes returns the cumulative wire bytes this rank has sent to rank
// `to` (0 when the transport does not track traffic).
func (n *Node) PairBytes(to int) int64 {
	return n.comm.World().PairBytes(n.comm.Rank(), to)
}

// Time returns the current simulation time.
func (n *Node) Time() float64 { return n.time }

// StepCount returns the number of completed steps.
func (n *Node) StepCount() int { return n.step }

// SetClock fast-forwards the step counter and simulation time, for resuming
// from a snapshot or checkpoint: the domain-epoch schedule (step % DomainFreq)
// must continue from the restored step, not restart at 0.
func (n *Node) SetClock(step int, time float64) {
	n.step = step
	n.time = time
}

// Particles returns the rank's current local particles (live slice; do not
// mutate).
func (n *Node) Particles() []body.Particle { return n.r.parts }

func (n *Node) domainDue() bool { return n.step%n.cfg.DomainFreq == 0 }

// forces runs one full-pipeline force evaluation. domainUpdate selects
// whether it re-decomposes and exchanges particles; all ranks must pass the
// same value (the decomposition is collective).
func (n *Node) forces(domainUpdate bool) RankStats {
	eval := n.evals
	n.evals++
	n.r.stepForces(n.step, eval, domainUpdate)
	n.record(eval, n.r.stats, nil)
	return n.r.stats
}

// record emits this rank's metrics record of one force evaluation. be carries
// the block-timestep diagnostics of a substep evaluation (nil on the
// global-dt path). No-op when tracing is disabled.
func (n *Node) record(eval int, rs RankStats, be *blockEval) {
	if n.cfg.Obs == nil {
		return
	}
	m := rs.stepMetrics(eval, n.comm.Rank(), n.comm.Size(), be)
	if n.hold {
		n.held = append(n.held, m)
	} else {
		n.cfg.Obs.AddStep(m)
	}
}

// Step advances this rank by one leapfrog step (kick-drift-kick), in lockstep
// with every other rank of the world, and returns the rank's force-phase
// statistics. With Config.BlockSteps the step runs as a sequence of
// block-timestep substeps (see block.go) and the stats sum every substep
// evaluation.
func (n *Node) Step() RankStats {
	if n.cfg.BlockSteps {
		rs, _ := n.advanceBlock(0)
		return rs
	}
	primed := false
	if n.first {
		// Prime accelerations at t=0.
		n.forces(n.domainDue())
		n.first = false
		primed = true
	}
	dt := n.cfg.DT
	r := n.r
	// Kick half + drift full (uses accelerations from the previous force
	// evaluation, which are aligned with the rank's current particle order).
	t0 := time.Now()
	for i := range r.parts {
		r.parts[i].Vel = r.parts[i].Vel.Add(r.acc[i].Scale(dt / 2))
		r.parts[i].Pos = r.parts[i].Pos.Add(r.parts[i].Vel.Scale(dt))
	}
	r.obs.Span(n.evals, obs.PhaseIntegrate, obs.LaneCompute, 0, t0, time.Now(), 0)
	// New forces at t+dt. If the t=0 priming evaluation just ran the domain
	// update, positions have only drifted within the same step, so the
	// decomposition is still fresh: skip the second update.
	rs := n.forces(n.domainDue() && !primed)
	// Kick half. The span is tagged with the evaluation whose accelerations
	// it applies (the one that just ran), so traces never mint an evaluation
	// ID that has no force phase.
	t0 = time.Now()
	for i := range r.parts {
		r.parts[i].Vel = r.parts[i].Vel.Add(r.acc[i].Scale(dt / 2))
	}
	r.obs.Span(n.evals-1, obs.PhaseIntegrate, obs.LaneCompute, 0, t0, time.Now(), 1)
	n.step++
	n.time += dt
	return rs
}

// ComputeForces runs the force pipeline once without advancing time
// (collective). Scaling measurements use it to time pure force iterations:
// every call runs the full pipeline, including the domain update when the
// current step is an update epoch.
func (n *Node) ComputeForces() RankStats {
	rs := n.forces(n.domainDue())
	n.first = false
	return rs
}

// Energy returns the total kinetic and potential energy across all ranks
// (collective: every rank must call it at the same point).
func (n *Node) Energy() (kin, pot float64) {
	kin, pot = n.r.energy(0, 0)
	sum := mpi.Allreduce(n.comm, []float64{kin, pot}, sumFloats, 16)
	return sum[0], sum[1]
}

// GatherParticles collects the global particle set at root, sorted by ID
// (collective). Non-root ranks receive nil.
func (n *Node) GatherParticles(root int) []body.Particle {
	local := append([]body.Particle(nil), n.r.parts...)
	slices := mpi.Gather(n.comm, root, local, len(local)*body.WireBytes)
	if n.comm.Rank() != root {
		return nil
	}
	var all []body.Particle
	for _, s := range slices {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// Checkpoint writes a distributed checkpoint of the current state into dir
// (collective). Every rank stores its slice, a barrier confirms all writes
// landed, and rank 0 commits the manifest — so a crash at any point leaves
// either the previous checkpoint or the new one, never a torn mix. Old
// checkpoints beyond the two newest are pruned.
func (n *Node) Checkpoint(dir string) error {
	err := snapshot.WriteRankCkpt(dir, int64(n.step), n.comm.Rank(), n.time, n.r.parts)
	n.comm.Barrier() // all rank files are on disk (or failed) past this point
	if n.comm.Rank() == 0 {
		if err == nil {
			err = snapshot.CommitCkpt(dir, int64(n.step), n.comm.Size())
		}
		if err == nil {
			snapshot.PruneCkpts(dir, 2)
		}
	}
	n.comm.Barrier() // no rank races ahead while the manifest is in flight
	return err
}
