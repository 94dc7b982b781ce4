package bonsai

import (
	"errors"
	"io"
	"net"
	"time"

	"bonsai/internal/body"
	"bonsai/internal/grav"
	"bonsai/internal/mpi"
	"bonsai/internal/obs"
	"bonsai/internal/obs/telemetry"
	"bonsai/internal/sim"
	"bonsai/internal/snapshot"
	"bonsai/internal/units"
	"bonsai/internal/vec"
)

// Physical constants of the simulation unit system (lengths in kpc,
// velocities in km/s, masses in 1e10 solar masses).
const (
	// G is the gravitational constant in simulation units.
	G = units.G
	// TimeUnitGyr is one simulation time unit expressed in gigayears.
	TimeUnitGyr = units.KpcPerKmsToGyr
)

// Vec3 is a Cartesian 3-vector.
type Vec3 struct {
	X, Y, Z float64
}

// Particle is one N-body particle: position (kpc), velocity (km/s), mass
// (1e10 M⊙) and a stable identity. Rung is the particle's timestep level
// under Config.BlockSteps (dt = DT/2^Rung); it is carried through snapshots
// and checkpoints so block-timestep runs restart with their hierarchy intact,
// and ignored otherwise.
type Particle struct {
	Pos  Vec3
	Vel  Vec3
	Mass float64
	ID   int64
	Rung uint8
}

// Config configures a simulation. Zero values select the paper's defaults
// where one exists (Theta 0.4, NLeaf 16) and sensible values elsewhere.
type Config struct {
	// Ranks is the number of simulated MPI processes (one modeled GPU
	// each). Default 1.
	Ranks int
	// WorkersPerRank is the number of compute workers each rank uses for
	// its tree-walks and sorts. Default 1.
	WorkersPerRank int
	// Theta is the multipole acceptance opening angle. Default 0.4, the
	// paper's production value for disk galaxies.
	Theta float64
	// Softening is the Plummer softening length in kpc. Default 0.01.
	// For Milky Way models use SofteningForN.
	Softening float64
	// DT is the leapfrog time step in simulation units. Default 1e-3.
	DT float64
	// NLeaf caps particles per octree leaf. Default 16 (paper §I).
	NLeaf int
	// NGroup is the tree-walk target group size, an upper bound that the
	// tree cut fills by packing sibling cells. Default 64.
	NGroup int
	// BoundaryDepth is the depth of the boundary tree every rank pushes to
	// every peer.
	// Default 4.
	BoundaryDepth int
	// DomainFreq is the number of steps between domain re-decompositions.
	// Default 4.
	DomainFreq int

	// BlockSteps enables hierarchical power-of-two block timesteps: each
	// particle integrates on its own rung dt = DT/2^k (k ≤ MaxRungs) chosen
	// from its acceleration, and only the active rung-block receives forces
	// at each substep while the rest drift. With MaxRungs 0 the block
	// integrator reduces bitwise to the global-dt leapfrog.
	BlockSteps bool
	// MaxRungs caps the timestep hierarchy depth (0–16). Default 0.
	MaxRungs int
	// EtaDT is the accuracy parameter of the timestep criterion
	// dt_i = EtaDT·sqrt(Softening/|a_i|). Default 0.1.
	EtaDT float64

	// GravConst is the gravitational constant of the particle set's unit
	// system. Default 1 (model units, as NewPlummer produces). Milky Way
	// models are in galactic units and need GravConst: bonsai.G.
	GravConst float64

	// External, if non-nil, adds a static analytic field to the particle
	// self-gravity — the paper's §I "type 1" setup (analytic dark halo +
	// live disk). See GalaxyModel.StaticHalo. Must be thread-safe.
	External ExternalField

	// SerialLET disables all communication/compute overlap in the gravity
	// phase: LETs are built and pushed on the compute thread before the
	// local walk, and incoming ones are walked only after it, in rank order.
	// Kept as the deterministic reference of the bitwise equivalence tests
	// and the non-overlapped baseline of the overlap benchmarks.
	SerialLET bool

	// Tracing enables the event-level observability layer: per-rank span
	// timelines (exported with WriteChromeTrace), LET-arrival and walk
	// histograms, and per-evaluation metrics (WriteMetricsJSONL). Disabled
	// (the default) it costs one nil check per record point and does not
	// change results.
	Tracing bool
}

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
// paper's Table II. The paper's "Sorting SFC" and "Tree-construction" rows
// are timed as one SortBuild phase here: Morton keys, the key sort, the
// particle reorder and the octree construction.
type PhaseTimes struct {
	SortBuild     time.Duration
	Domain        time.Duration
	TreeProps     time.Duration
	GravLocal     time.Duration
	GravLET       time.Duration
	NonHiddenComm time.Duration
	Other         time.Duration
	Total         time.Duration
}

// StepStats summarizes one force computation across all ranks.
type StepStats struct {
	Step  int
	Ranks int
	N     int

	// Times averages the per-rank phase breakdown; MaxTimes records the
	// slowest rank per phase (the load-imbalance view).
	Times    PhaseTimes
	MaxTimes PhaseTimes

	// Interaction statistics under the paper's §VI.A conventions.
	PP            uint64
	PC            uint64
	PPPerParticle float64
	PCPerParticle float64
	Flops         float64

	// LETsSent counts full LET pushes; BoundaryUsed counts rank pairs
	// served by boundary trees alone; BoundarySent counts boundary-tree
	// pushes (p·(p−1) per evaluation); BytesSent is the step's total
	// metered traffic.
	LETsSent     int
	BoundaryUsed int
	BoundarySent int
	BytesSent    int64

	// Overlap efficiency of the gravity phase: LETsOverlapped of the
	// LETsRecv received full LETs were walked while the local tree-walk
	// was still running (OverlapFrac is their ratio); RecvIdle is the mean
	// per-rank time the receiver goroutine spent blocked on arrivals,
	// hidden behind the local walk.
	LETsRecv       int
	LETsOverlapped int
	OverlapFrac    float64
	RecvIdle       time.Duration

	// WalkGflops is the aggregate rate over gravity-walk time only (the
	// "GPU kernels" series of Fig. 4); AppGflops uses the full step time.
	WalkGflops float64
	AppGflops  float64

	// KernelISA names the force-kernel instruction set the walks ran on
	// ("avx2+fma" when the runtime dispatch selected the SIMD kernels,
	// "scalar" otherwise).
	KernelISA string

	// Block-timestep accounting (zero unless Config.BlockSteps with
	// MaxRungs > 0): Substeps counts force evaluations inside the step,
	// Rebuilds how many of them rebuilt the tree from scratch (the rest
	// reused the Morton order and refreshed multipoles in place), and
	// ActiveFrac is the mean fraction of particles receiving forces per
	// substep.
	Substeps   int
	Rebuilds   int
	ActiveFrac float64
}

// simConfig is the one translation from the public configuration to the
// engine's; rec is the run's tracing recorder (nil without Config.Tracing).
func simConfig(cfg Config, rec *obs.Recorder) sim.Config {
	return sim.Config{
		Ranks:          cfg.Ranks,
		WorkersPerRank: cfg.WorkersPerRank,
		Theta:          cfg.Theta,
		Eps:            cfg.Softening,
		DT:             cfg.DT,
		NLeaf:          cfg.NLeaf,
		NGroup:         cfg.NGroup,
		BoundaryDepth:  cfg.BoundaryDepth,
		DomainFreq:     cfg.DomainFreq,
		BlockSteps:     cfg.BlockSteps,
		MaxRungs:       cfg.MaxRungs,
		EtaDT:          cfg.EtaDT,
		G:              cfg.GravConst,
		External:       wrapExternal(cfg.External),
		SerialLET:      cfg.SerialLET,
		Obs:            rec,
	}
}

// traced is the trace-export surface Simulation and NodeSimulation share: a
// view of the run's recorder, nil without Config.Tracing.
type traced struct {
	rec *obs.Recorder
}

// newTraced creates the recorder of a ranks-rank run when cfg asks for one.
func newTraced(cfg Config, ranks int) traced {
	if !cfg.Tracing {
		return traced{}
	}
	return traced{rec: obs.New(ranks, 0)}
}

// ErrTracingDisabled is returned by the trace exporters when the simulation
// was created without Config.Tracing.
var ErrTracingDisabled = errors.New("bonsai: tracing not enabled (set Config.Tracing)")

// WriteChromeTrace exports the recorded span timeline in Chrome trace-event
// JSON (load in Perfetto / chrome://tracing: one process per rank, one lane
// per pipeline role). A NodeSimulation exports its own rank; for the all-rank
// view of a multi-process run use the launcher's telemetry collector.
// Requires Config.Tracing.
func (t traced) WriteChromeTrace(w io.Writer) error {
	if t.rec == nil {
		return ErrTracingDisabled
	}
	return t.rec.WriteChromeTrace(w)
}

// WriteMetricsJSONL exports one JSON object per force evaluation (overlap
// fraction, straggler rank, imbalance, Gflop/s, worst LET arrival): folded
// over all ranks by a Simulation, this rank's view from a NodeSimulation.
// Requires Config.Tracing.
func (t traced) WriteMetricsJSONL(w io.Writer) error {
	if t.rec == nil {
		return ErrTracingDisabled
	}
	return t.rec.WriteMetricsJSONL(w)
}

// PublishExpvar exposes the live metric histograms through the expvar
// variable "bonsai.obs" (serve with net/http's /debug/vars). Requires
// Config.Tracing; safe to call repeatedly, and a later simulation's call
// repoints the variable at its own recorder.
func (t traced) PublishExpvar() error {
	if t.rec == nil {
		return ErrTracingDisabled
	}
	t.rec.PublishExpvar()
	return nil
}

// Simulation is a running distributed N-body system.
type Simulation struct {
	inner *sim.Simulation
	traced
}

// New creates a simulation from the given particles.
func New(cfg Config, parts []Particle) (*Simulation, error) {
	tr := newTraced(cfg, max(cfg.Ranks, 1)) // sim.New defaults Ranks to 1
	inner, err := sim.New(simConfig(cfg, tr.rec), toBody(parts))
	if err != nil {
		return nil, err
	}
	return &Simulation{inner: inner, traced: tr}, nil
}

// Step advances the system by one kick-drift-kick leapfrog step and returns
// the force-computation statistics.
func (s *Simulation) Step() StepStats { return fromStats(s.inner.Step()) }

// Run advances n steps, returning per-step statistics.
func (s *Simulation) Run(n int) []StepStats {
	out := make([]StepStats, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.Step())
	}
	return out
}

// ComputeForces runs the distributed force pipeline once without advancing
// time; scaling studies use it to time pure force iterations.
func (s *Simulation) ComputeForces() StepStats { return fromStats(s.inner.ComputeForces()) }

// Time returns the current simulation time (internal units; see Gyr).
func (s *Simulation) Time() float64 { return s.inner.Time() }

// StepCount returns the number of completed steps.
func (s *Simulation) StepCount() int { return s.inner.StepCount() }

// Particles gathers the current particle states from all ranks, sorted by ID.
func (s *Simulation) Particles() []Particle { return fromBody(s.inner.Particles()) }

// Accelerations returns the latest accelerations and specific potentials,
// ordered by particle ID.
func (s *Simulation) Accelerations() ([]Vec3, []float64) {
	acc, pot := s.inner.Accelerations()
	out := make([]Vec3, len(acc))
	for i, a := range acc {
		out[i] = Vec3{a.X, a.Y, a.Z}
	}
	return out, pot
}

// Energy returns total kinetic and potential energy from the most recent
// force evaluation.
func (s *Simulation) Energy() (kin, pot float64) { return s.inner.Energy() }

// Momentum returns the total linear momentum.
func (s *Simulation) Momentum() Vec3 {
	p := s.inner.Momentum()
	return Vec3{p.X, p.Y, p.Z}
}

// RankCounts reports the current particle count per rank.
func (s *Simulation) RankCounts() []int { return s.inner.RankCounts() }

// Owners returns, for each particle ordered by ID, the rank that currently
// owns it under the Peano–Hilbert domain decomposition.
func (s *Simulation) Owners() []int { return s.inner.Owners() }

// CommBytes returns the cumulative metered communication volume.
func (s *Simulation) CommBytes() int64 { return s.inner.World().TotalBytes() }

// Substep returns the position inside the current block-timestep hierarchy:
// 0 at a top-of-step barrier, otherwise the index (in units of the finest
// substep) of the last completed mid-step barrier. Always 0 without
// Config.BlockSteps.
func (s *Simulation) Substep() int { return s.inner.Substep() }

// RestoreSubstep resumes a block-timestep run from a snapshot taken at a
// mid-step barrier: the particles' saved rungs are kept (instead of being
// re-assigned from fresh accelerations) and the next Step call first finishes
// the interrupted step from the given barrier. Requires Config.BlockSteps.
func (s *Simulation) RestoreSubstep(sub int) error { return s.inner.RestoreSubstep(sub) }

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
}

// NewNodeSimulation creates the driver for one rank of a multi-process run.
// parts is this rank's slice of the global particle set; use SliceForRank on
// an identically generated (or restored) global set in every process.
//
// With Config.Tracing set, the node records its own rank's spans, per-step
// metrics, and communication histograms — the state ServeTelemetry exposes
// for the launcher's collector to merge across processes.
func NewNodeSimulation(cfg Config, w *World, rank int, parts []Particle) (*NodeSimulation, error) {
	tr := newTraced(cfg, w.inner.Size())
	if tr.rec != nil {
		w.inner.EnableObs(tr.rec.Metrics().QueueDepthHist())
		w.inner.ObserveFrameBytes(tr.rec.Metrics().FrameBytesHist())
	}
	inner, err := sim.NewNode(simConfig(cfg, tr.rec), w.inner, rank, toBody(parts))
	if err != nil {
		return nil, err
	}
	return &NodeSimulation{inner: inner, traced: tr}, nil
}

// SliceForRank cuts rank r's initial share out of a global particle set,
// using the same even split Simulation applies at creation.
func SliceForRank(parts []Particle, r, ranks int) []Particle {
	lo := r * len(parts) / ranks
	hi := (r + 1) * len(parts) / ranks
	return parts[lo:hi]
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

// Substep reports the node's position inside the current block-timestep
// hierarchy (0 at a top-of-step barrier). Always 0 without Config.BlockSteps.
func (n *NodeSimulation) Substep() int { return n.inner.Substep() }

// RestoreSubstep resumes a block-timestep run from checkpointed state: the
// particles' saved rungs are kept instead of being re-assigned (collective —
// every rank must restore the same barrier). Checkpoints are taken at
// top-of-step barriers, so restarts pass 0 to preserve rung continuity.
func (n *NodeSimulation) RestoreSubstep(sub int) error { return n.inner.RestoreSubstep(sub) }

// Step advances this rank by one leapfrog step, in lockstep with every other
// rank, and returns this rank's view of the step statistics.
func (n *NodeSimulation) Step() StepStats {
	rs := n.inner.Step()
	st := sim.Aggregate(n.inner.StepCount(), []sim.RankStats{rs})
	st.Substeps, st.Rebuilds, st.ActiveFrac = n.inner.BlockSummary()
	return fromStats(st)
}

// Energy returns the total kinetic and potential energy across all ranks
// (collective: every rank must call it at the same point in its step
// sequence).
func (n *NodeSimulation) Energy() (kin, pot float64) { return n.inner.Energy() }

// GatherParticles collects the global particle set at the root rank, sorted
// by ID (collective). Non-root ranks receive nil.
func (n *NodeSimulation) GatherParticles(root int) []Particle {
	return fromBody(n.inner.GatherParticles(root))
}

// Checkpoint writes a distributed checkpoint into dir (collective): every
// rank stores its slice, and rank 0 atomically commits the step once all
// writes landed. A run killed at any point restarts from the newest committed
// checkpoint via LatestCheckpoint/LoadRankCheckpoint.
func (n *NodeSimulation) Checkpoint(dir string) error { return n.inner.Checkpoint(dir) }

// NodeTelemetry is a worker's live telemetry endpoint: spans, step metrics,
// histograms, Prometheus gauges, expvar, and pprof served over HTTP, plus
// the end-of-run gate the launcher's collector releases after its final
// scrape.
type NodeTelemetry struct {
	inner *telemetry.Server
}

// ServeTelemetry starts serving this rank's telemetry on the listener (owned
// by the endpoint from here on). Requires Config.Tracing.
func (n *NodeSimulation) ServeTelemetry(ln net.Listener) (*NodeTelemetry, error) {
	if n.rec == nil {
		return nil, ErrTracingDisabled
	}
	srv := telemetry.Serve(ln, telemetry.ServerConfig{
		Rec:       n.rec,
		Rank:      n.inner.Rank(),
		Ranks:     n.inner.Ranks(),
		KernelISA: grav.KernelISA(),
		PairBytes: n.inner.PairBytes,
	})
	return &NodeTelemetry{inner: srv}, nil
}

// MarkDone flags the simulation as finished so the collector can take its
// final scrape; call it after the last step (and any final collective).
func (t *NodeTelemetry) MarkDone() { t.inner.MarkDone() }

// WaitShutdown blocks until the collector has scraped the final state and
// released this worker, or the timeout passes (so a dead collector cannot
// wedge the worker). Reports whether the release arrived in time.
func (t *NodeTelemetry) WaitShutdown(timeout time.Duration) bool {
	return t.inner.WaitShutdown(timeout)
}

// Close stops the telemetry endpoint.
func (t *NodeTelemetry) Close() error { return t.inner.Close() }

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
	h, bp, err := snapshot.LoadRankCkpt(dir, int64(step), rank)
	if err != nil {
		return 0, nil, err
	}
	return h.Time, fromBody(bp), nil
}

// ---------------------------------------------------------------------------
// conversions

func wrapExternal(f ExternalField) func(vec.V3) (vec.V3, float64) {
	if f == nil {
		return nil
	}
	return func(p vec.V3) (vec.V3, float64) {
		a, pot := f(Vec3{p.X, p.Y, p.Z})
		return vec.V3{X: a.X, Y: a.Y, Z: a.Z}, pot
	}
}

func toBody(parts []Particle) []body.Particle {
	out := make([]body.Particle, len(parts))
	for i, p := range parts {
		out[i] = body.Particle{
			Pos:  vec.V3{X: p.Pos.X, Y: p.Pos.Y, Z: p.Pos.Z},
			Vel:  vec.V3{X: p.Vel.X, Y: p.Vel.Y, Z: p.Vel.Z},
			Mass: p.Mass,
			ID:   p.ID,
			Rung: p.Rung,
		}
	}
	return out
}

func fromBody(parts []body.Particle) []Particle {
	out := make([]Particle, len(parts))
	for i, p := range parts {
		out[i] = Particle{
			Pos:  Vec3{p.Pos.X, p.Pos.Y, p.Pos.Z},
			Vel:  Vec3{p.Vel.X, p.Vel.Y, p.Vel.Z},
			Mass: p.Mass,
			ID:   p.ID,
			Rung: p.Rung,
		}
	}
	return out
}

func fromPhase(p sim.PhaseTimes) PhaseTimes {
	return PhaseTimes{
		SortBuild: p.SortBuild, Domain: p.Domain,
		TreeProps: p.TreeProps,
		GravLocal: p.GravLocal, GravLET: p.GravLET,
		NonHiddenComm: p.NonHiddenComm, Other: p.Other, Total: p.Total,
	}
}

func fromStats(st sim.StepStats) StepStats {
	return StepStats{
		Step:           st.Step,
		Ranks:          st.Ranks,
		N:              st.N,
		Times:          fromPhase(st.Times),
		MaxTimes:       fromPhase(st.MaxTimes),
		PP:             st.Grav.PP,
		PC:             st.Grav.PC,
		PPPerParticle:  st.PPPerParticle,
		PCPerParticle:  st.PCPerParticle,
		Flops:          st.Grav.Flops(),
		LETsSent:       st.LETsSent,
		BoundaryUsed:   st.BoundaryUsed,
		BytesSent:      st.BytesSent,
		BoundarySent:   st.BoundarySent,
		LETsRecv:       st.LETsRecv,
		LETsOverlapped: st.LETsOverlapped,
		OverlapFrac:    st.OverlapFrac,
		RecvIdle:       st.RecvIdle,
		WalkGflops:     st.WalkGflops,
		AppGflops:      st.AppGflops,
		KernelISA:      st.KernelISA,
		Substeps:       st.Substeps,
		Rebuilds:       st.Rebuilds,
		ActiveFrac:     st.ActiveFrac,
	}
}
