package bonsai

import (
	"errors"
	"io"
	"time"

	"bonsai/internal/body"
	"bonsai/internal/mpi"
	"bonsai/internal/obs"
	"bonsai/internal/obs/telemetry"
	"bonsai/internal/sim"
	"bonsai/internal/snapshot"
	"bonsai/internal/units"
	"bonsai/internal/vec"
)

// G is the gravitational constant of the simulation unit system (lengths in
// kpc, velocities in km/s, masses in 1e10 solar masses).
const G = units.G

// Vec3 is a Cartesian 3-vector, the engine's own vector type with its
// arithmetic methods (Add, Sub, Scale, Dot, Norm, ...).
type Vec3 = vec.V3

// Particle is one N-body particle: position (kpc), velocity (km/s), mass
// (1e10 M⊙) and a stable identity ID. Rung is the particle's timestep level
// under Config.BlockSteps (dt = DT/2^Rung); it is carried through snapshots
// and checkpoints, and a block-timestep run keeps the rungs its particles
// arrive with when any is above 0 (a restart) and assigns them from the first
// accelerations otherwise. Without BlockSteps every particle is on rung 0.
// Weight is the engine's load-balancing work estimate (the interactions the
// particle cost in the previous step): it is ignored on input, not persisted
// by snapshots, and meaningful only as the engine reports it.
type Particle = body.Particle

// Config configures a simulation (both Simulation and NodeSimulation); zero
// values select the paper's defaults where one exists (Theta 0.4) and
// sensible values elsewhere. Milky Way models are in galactic units and need
// GravConst: bonsai.G and Softening: SofteningForN(n). MaxRungs counts only
// with BlockSteps set, and Tracing enables the exporters below.
type Config = sim.Config

// SofteningForN returns the softening (kpc) matching the paper's resolution
// scaling: 1 pc at N = 51.2e9, growing as N^(-1/3) for smaller models.
func SofteningForN(n int) float64 { return units.SofteningForN(n) }

// SuggestedDT returns a reasonable leapfrog time step for an N-particle
// Milky Way model: the paper's softening-crossing criterion, capped at
// ~1% of the disk orbital period, which binds at reduced particle counts.
func SuggestedDT(n int) float64 { return units.SuggestedDT(n) }

// Gyr converts a simulation time to gigayears.
func Gyr(t float64) float64 { return units.Gyr(t) }

// FromGyr converts gigayears to simulation time.
func FromGyr(gyr float64) float64 { return units.FromGyr(gyr) }

// PhaseTimes is a per-step wall-clock breakdown matching the rows of the
// paper's Table II, with the evaluation's Total; see obs.PhaseTimes.
type PhaseTimes = obs.PhaseTimes

// StepStats is the step record every rank writes and the JSONL metrics
// stream carries: phase Times (mean over ranks) and MaxTimes (slowest rank),
// interaction counts PP and PC with their Flops under the paper's §VI.A
// conventions, LET and boundary-tree traffic, the overlap of the exchange
// with the local walk, walk and application Gflop/s, and the block-timestep
// counts (Substeps, Rebuilds, ActiveFrac). json.Marshal writes it with the
// stream's keys.
//
// Step is the sequence number of the record's last force evaluation. On a
// shared-step run without SetClock it equals StepCount after Step (the first
// step also runs the priming evaluation, number 0); under BlockSteps, and
// once ComputeForces has run, it counts evaluations instead.
type StepStats = obs.StepMetrics

// traced is the trace-export surface Simulation and NodeSimulation share: a
// view of the run's recorder and fleet view, nil without Config.Tracing. Only
// the process holding rank 0 has the fleet view of a multi-process run.
type traced struct {
	rec   *obs.Recorder
	fleet *telemetry.Fleet
}

// ErrTracingDisabled is returned by the trace exporters when the simulation
// was created without Config.Tracing.
var ErrTracingDisabled = errors.New("bonsai: tracing not enabled (set Config.Tracing)")

// errNotRoot is returned by the fleet exporters of a rank other than 0.
var errNotRoot = errors.New("bonsai: the fleet view of a multi-process run is on rank 0")

// WriteChromeTrace exports the recorded span timeline in Chrome trace-event
// JSON (load in Perfetto / chrome://tracing: one process per rank, one lane
// per pipeline role). Rank 0 of a multi-process run writes every rank's
// spans on its own clock once GatherTelemetry has run; before that, and on
// any other rank, a NodeSimulation writes its own rank's. Requires
// Config.Tracing.
func (t traced) WriteChromeTrace(w io.Writer) error {
	if t.rec == nil {
		return ErrTracingDisabled
	}
	if end := t.fleet.End(); end != nil {
		return end.WriteTrace(w)
	}
	return t.rec.WriteChromeTrace(w)
}

// WriteMetricsJSONL exports one JSON object per force evaluation, folded over
// all ranks (overlap fraction, straggler rank, imbalance, Gflop/s, worst LET
// arrival). A multi-process run's stream is on rank 0. Requires
// Config.Tracing.
func (t traced) WriteMetricsJSONL(w io.Writer) error {
	if t.rec == nil {
		return ErrTracingDisabled
	}
	if t.fleet == nil {
		return errNotRoot
	}
	return t.rec.WriteMetricsJSONL(w)
}

// WriteProm writes the fleet view in Prometheus text format: every rank's
// gauges of its latest evaluation plus, after a multi-process run's
// GatherTelemetry, the clock offsets and pair bytes.
// Safe to call while the run steps. Requires Config.Tracing, and rank 0 of a
// multi-process run.
func (t traced) WriteProm(w io.Writer) error {
	if t.rec == nil {
		return ErrTracingDisabled
	}
	if t.fleet == nil {
		return errNotRoot
	}
	return t.fleet.WriteProm(w)
}

// Simulation is a running distributed N-body system.
type Simulation struct {
	inner *sim.Simulation
	traced
}

// New creates a simulation from the given particles; parts is read, not
// kept.
func New(cfg Config, parts []Particle) (*Simulation, error) {
	inner, err := sim.New(cfg, parts)
	if err != nil {
		return nil, err
	}
	return &Simulation{inner: inner, traced: traced{rec: inner.Recorder(), fleet: inner.Fleet()}}, nil
}

// Step advances the system by one kick-drift-kick leapfrog step and returns
// the cross-rank record of its force computation (the first step's includes
// the evaluation that primes the accelerations).
func (s *Simulation) Step() StepStats { return s.inner.Step() }

// Run advances n steps, returning per-step records.
func (s *Simulation) Run(n int) []StepStats { return s.inner.Run(n) }

// ComputeForces runs the distributed force pipeline once without advancing
// time; scaling studies use it to time pure force iterations.
func (s *Simulation) ComputeForces() StepStats { return s.inner.ComputeForces() }

// Time returns the current simulation time (internal units; see Gyr).
func (s *Simulation) Time() float64 { return s.inner.Time() }

// StepCount returns the number of completed steps.
func (s *Simulation) StepCount() int { return s.inner.StepCount() }

// Particles gathers the current particle states from all ranks into a fresh
// slice, sorted by ID.
func (s *Simulation) Particles() []Particle { return s.inner.Particles() }

// Accelerations returns the latest accelerations and specific potentials,
// ordered by particle ID.
func (s *Simulation) Accelerations() ([]Vec3, []float64) { return s.inner.Accelerations() }

// Energy returns total kinetic and potential energy from the most recent
// force evaluation.
func (s *Simulation) Energy() (kin, pot float64) { return s.inner.Energy() }

// Momentum returns the total linear momentum.
func (s *Simulation) Momentum() Vec3 { return s.inner.Momentum() }

// RankCounts reports the current particle count per rank.
func (s *Simulation) RankCounts() []int { return s.inner.RankCounts() }

// Owners returns, for each particle ordered by ID, the rank that currently
// owns it under the Peano–Hilbert domain decomposition.
func (s *Simulation) Owners() []int { return s.inner.Owners() }

// CommBytes returns the cumulative metered communication volume.
func (s *Simulation) CommBytes() int64 { return s.inner.World().TotalBytes() }

// SetClock fast-forwards the step counter and simulation time when resuming
// from a snapshot, so the domain-update schedule continues where it stopped.
func (s *Simulation) SetClock(step int, t float64) { s.inner.SetClock(step, t) }

// ---------------------------------------------------------------------------
// multi-process runs

// World is one process's view of a fixed-size communicator universe whose
// ranks live in separate OS processes, linked by a socket transport. It is
// the facade over the runtime cmd/bonsai's launcher uses: each worker process
// creates a World hosting its own rank and a NodeSimulation driving it.
type World struct {
	inner *mpi.World
}

// NewSocketWorld creates this process's view of a size-rank world over
// network "tcp" or "unix". addrs holds every rank's listen address (host:port
// or socket path) and localRanks the ranks hosted by this process. The
// transport dials lazily with retry/backoff, so worlds may be created in any
// order across processes.
func NewSocketWorld(size int, network string, addrs []string, localRanks []int) (*World, error) {
	w, err := mpi.NewSocketWorld(size, mpi.SocketConfig{
		Network: network,
		Addrs:   addrs,
		Local:   localRanks,
	})
	if err != nil {
		return nil, err
	}
	return &World{inner: w}, nil
}

// Close flushes in-flight traffic and tears the transport down. Call only
// after every expected receive has completed (end of the run).
func (w *World) Close() error { return w.inner.Close() }

// CommBytes returns the communication volume metered by this process's ranks.
func (w *World) CommBytes() int64 { return w.inner.TotalBytes() }

// NodeSimulation drives ONE rank of a distributed run — the multi-process
// counterpart of Simulation, which hosts every rank in-process. All ranks of
// the world must step in lockstep with identical configurations; the
// collective structure of the pipeline keeps them synchronized.
type NodeSimulation struct {
	inner *sim.Node
	traced
	gatherErr error // the first failure of a per-step telemetry gather (rank 0)
}

// NewNodeSimulation creates the driver for one rank of a multi-process run.
// parts is this rank's slice of the global particle set; use SliceForRank on
// an identically generated (or restored) global set in every process.
//
// With Config.Tracing set, the node records its own rank's spans and
// per-peer byte counts, and every Step ends with a gather of the step's
// evaluation records to rank 0, whose fleet view folds them: rank 0 writes
// the run's metrics stream and Prometheus view, and after GatherTelemetry its
// merged trace.
func NewNodeSimulation(cfg Config, w *World, rank int, parts []Particle) (*NodeSimulation, error) {
	inner, err := sim.NewNode(cfg, w.inner, rank, parts)
	if err != nil {
		return nil, err
	}
	return &NodeSimulation{inner: inner, traced: traced{rec: inner.Recorder(), fleet: inner.Fleet()}}, nil
}

// SliceForRank cuts rank r's initial share out of a global particle set,
// using the same even split Simulation applies at creation.
func SliceForRank(parts []Particle, r, ranks int) []Particle {
	return sim.SliceForRank(parts, r, ranks)
}

// Rank returns the rank this node drives.
func (n *NodeSimulation) Rank() int { return n.inner.Rank() }

// Time returns the current simulation time (internal units; see Gyr).
func (n *NodeSimulation) Time() float64 { return n.inner.Time() }

// StepCount returns the number of completed steps.
func (n *NodeSimulation) StepCount() int { return n.inner.StepCount() }

// SetClock fast-forwards the step counter and simulation time when resuming
// from a checkpoint, so the domain-update schedule continues where it
// stopped instead of restarting at step 0.
func (n *NodeSimulation) SetClock(step int, t float64) { n.inner.SetClock(step, t) }

// Step advances this rank by one leapfrog step, in lockstep with every other
// rank, and returns this rank's own record of the step: Rank is this rank,
// Ranks the world size, and MaxTimes equals Times.
func (n *NodeSimulation) Step() StepStats {
	m := n.inner.Step()
	if n.rec != nil {
		if err := telemetry.GatherStep(n.inner.Comm(), n.fleet, n.inner.Records()); err != nil && n.gatherErr == nil {
			n.gatherErr = err
		}
	}
	return m
}

// GatherTelemetry ends a traced run's telemetry (collective; call after the
// last step): rank 0 aligns every rank's recorder clock on its own by
// round-trip probes over the world, and every rank sends it its span track
// and per-peer byte counts. Rank 0 returns the bound on the residual
// cross-rank clock skew of the merged trace, and the first failure of this or
// any per-step gather. Requires Config.Tracing.
func (n *NodeSimulation) GatherTelemetry() (skew time.Duration, err error) {
	if n.rec == nil {
		return 0, ErrTracingDisabled
	}
	end, err := telemetry.GatherEnd(n.inner.Comm(), n.rec)
	if end != nil {
		n.fleet.SetEnd(end)
		skew = end.MaxUncertainty()
	}
	return skew, errors.Join(n.gatherErr, err)
}

// Energy returns the total kinetic and potential energy across all ranks
// (collective: every rank must call it at the same point in its step
// sequence).
func (n *NodeSimulation) Energy() (kin, pot float64) { return n.inner.Energy() }

// GatherParticles collects the global particle set at the root rank into a
// fresh slice, sorted by ID (collective). Non-root ranks receive nil.
func (n *NodeSimulation) GatherParticles(root int) []Particle { return n.inner.GatherParticles(root) }

// Checkpoint writes a distributed checkpoint into dir (collective): every
// rank stores its slice, and rank 0 atomically commits the step once all
// writes landed. A run killed at any point restarts from the newest committed
// checkpoint via LatestCheckpoint/LoadRankCheckpoint.
func (n *NodeSimulation) Checkpoint(dir string) error { return n.inner.Checkpoint(dir) }

// LatestCheckpoint returns the newest committed checkpoint in dir: its step,
// the rank count it was written with, and whether one exists at all.
func LatestCheckpoint(dir string) (step int, ranks int, ok bool) {
	s, r, ok := snapshot.LatestCkpt(dir)
	return int(s), r, ok
}

// LoadRankCheckpoint restores one rank's particle slice from the committed
// checkpoint at the given step, returning the simulation time it was taken
// at.
func LoadRankCheckpoint(dir string, step, rank int) (t float64, parts []Particle, err error) {
	h, parts, err := snapshot.LoadRankCkpt(dir, int64(step), rank)
	if err != nil {
		return 0, nil, err
	}
	return h.Time, parts, nil
}
