package sim

import (
	"fmt"
	"math"
	"sort"

	"bonsai/internal/body"
	"bonsai/internal/domain"
	"bonsai/internal/mpi"
	"bonsai/internal/obs"
	"bonsai/internal/obs/telemetry"
	"bonsai/internal/snapshot"
)

// Node drives ONE rank of a distributed simulation over an externally
// provided mpi.World: the only step driver in the package. Every process of a
// socket-transport run (cmd/bonsai's launcher) creates one Node per hosted
// rank and calls Step in lockstep; the in-process Simulation is p Nodes over a
// channel world, released together on p goroutines. Either way the collective
// structure of the pipeline keeps the ranks synchronized, and an 8-rank run
// over sockets reproduces the in-process one bitwise.
type Node struct {
	cfg   Config
	comm  *mpi.Comm
	rec   *obs.Recorder    // nil without Config.Tracing
	fleet *telemetry.Fleet // rank 0 of a standalone traced node only
	r     *rank
	step  int
	evals int // completed force evaluations (tracing sequence number)
	time  float64
	first bool
}

// NewNode creates the driver for one rank. parts is this rank's initial
// slice of the global particle set; every rank of the world must receive the
// same Config and a consistent split of the global set ordered by rank (e.g.
// SliceForRank). cfg.Ranks must equal w.Size(). The particles' Weight is
// dropped: the first decomposition weighs every particle alike, and later
// ones use the work the step itself measured.
//
// With cfg.Tracing the node records its own rank's spans, the world meters
// its bytes per rank pair (for telemetry.GatherEnd), and rank 0 holds the
// fleet view the other ranks' step records are gathered to
// (telemetry.GatherStep).
func NewNode(cfg Config, w *mpi.World, rankID int, parts []body.Particle) (*Node, error) {
	var rec *obs.Recorder
	if cfg.Tracing {
		rec = obs.New(w.Size(), 0)
	}
	n, err := newNode(cfg, w, rankID, parts, rec)
	if err != nil || rec == nil {
		return n, err
	}
	w.MeterPairs()
	if rankID == 0 {
		n.fleet = telemetry.NewFleet(rec, w.Size())
	}
	return n, nil
}

// newNode creates rank rankID's driver recording into rec (nil: untraced).
func newNode(cfg Config, w *mpi.World, rankID int, parts []body.Particle, rec *obs.Recorder) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Ranks != w.Size() {
		return nil, fmt.Errorf("sim: config has %d ranks, world has %d", cfg.Ranks, w.Size())
	}
	for i := range parts {
		if !parts[i].Pos.IsFinite() || !parts[i].Vel.IsFinite() ||
			math.IsNaN(parts[i].Mass) || math.IsInf(parts[i].Mass, 0) || parts[i].Mass < 0 {
			return nil, fmt.Errorf("sim: particle %d (id %d) has non-finite or negative state", i, parts[i].ID)
		}
	}
	// Rungs above the configured hierarchy (a snapshot of a deeper run)
	// restart on the coarser grid; a shared-step run puts every particle on
	// rung 0.
	local := make([]body.Particle, len(parts))
	for i, p := range parts {
		p.Rung = min(p.Rung, uint8(cfg.MaxRungs))
		p.Weight = 0
		local[i] = p
	}
	n := &Node{
		cfg:   cfg,
		comm:  w.Comm(rankID),
		rec:   rec,
		first: true,
	}
	n.r = &rank{
		cfg:   &n.cfg,
		comm:  n.comm,
		parts: local,
		dec:   domain.Uniform(cfg.Ranks),
		obs:   rec.Rank(rankID),
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

// Recorder returns the rank's tracing recorder, nil without Config.Tracing.
func (n *Node) Recorder() *obs.Recorder { return n.rec }

// Fleet returns the run's fleet view: held by rank 0 of a traced standalone
// node, nil elsewhere (an in-process Simulation holds its own).
func (n *Node) Fleet() *telemetry.Fleet { return n.fleet }

// Comm returns the rank's communicator, for collectives beside the step's.
func (n *Node) Comm() *mpi.Comm { return n.comm }

// Time returns the current simulation time.
func (n *Node) Time() float64 { return n.time }

// StepCount returns the number of completed steps.
func (n *Node) StepCount() int { return n.step }

// SetClock fast-forwards the step counter and simulation time, for resuming
// from a snapshot or checkpoint: the domain-epoch schedule (step % domainFreq)
// must continue from the restored step, not restart at 0.
func (n *Node) SetClock(step int, time float64) {
	n.step = step
	n.time = time
}

// Records returns the per-rank records of the force evaluations the latest
// Step or ComputeForces ran, while tracing (nil otherwise); valid until the
// next one. The driver hands them to the run's fleet view: a Simulation
// directly, a standalone node through telemetry.GatherStep.
func (n *Node) Records() []obs.StepMetrics { return n.r.recs }

// Particles returns the rank's current local particles (live slice; do not
// mutate).
func (n *Node) Particles() []body.Particle { return n.r.parts }

// Step advances this rank by one top-level step in lockstep with every other
// rank of the world — the kick-drift-kick leapfrog, on its rungs' substeps
// when MaxRungs > 0 (see block.go) — and returns the rank's record of the
// step: the AddEval fold of its force evaluations, the first step's priming
// evaluation included.
func (n *Node) Step() obs.StepMetrics {
	r := n.r
	r.recs = r.recs[:0]
	n.evals = r.blockAdvance(n.step, n.evals, n.first)
	n.first = false
	m := r.stepSum
	r.stepSum = obs.StepMetrics{}
	n.step++
	n.time += n.cfg.DT
	return m
}

// ComputeForces runs one full force evaluation without advancing time
// (collective). Scaling measurements use it to time pure force iterations:
// every call rebuilds the tree and walks every particle, including the domain
// update when the current step is an update epoch.
func (n *Node) ComputeForces() obs.StepMetrics {
	r := n.r
	r.recs = r.recs[:0]
	n.first = false
	r.blockForces(n.step, n.evals, n.step%domainFreq == 0, true, 0)
	n.evals++
	r.keep()
	return r.stats
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
