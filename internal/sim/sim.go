// Package sim is the parallel gravitational tree-code: the paper's Bonsai
// pipeline running over the in-process message-passing runtime, one
// simulated GPU-equipped node per rank.
//
// Every step each rank executes, with phase timers matching Table II:
//
//  1. global bounding box (collective) and SFC key grid
//  2. domain update: two-stage sampling decomposition over Peano–Hilbert
//     keys, flop-weighted with a 30% particle cap, and all-to-all particle
//     exchange
//  3. Morton sort of local particles ("Sorting SFC")
//  4. octree construction ("Tree-construction")
//  5. multipole computation ("Tree-properties")
//  6. gravity: boundary trees pushed to every peer, then the local tree-walk
//     overlapped with building/pushing/receiving full LETs; remote forces
//     are computed in batched passes over the trees that have arrived
//     ("Compute gravity Local-tree" / "Compute gravity LETs" / "Non-hidden
//     LET comm")
//  7. second-order leapfrog (KDK) integration, one shared step or
//     power-of-two block rungs (block.go)
//
// Forces are independent of the rank count up to multipole acceptance error,
// which the test suite verifies against direct summation.
package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"bonsai/internal/body"
	"bonsai/internal/mpi"
	"bonsai/internal/obs"
	"bonsai/internal/obs/telemetry"
	"bonsai/internal/vec"
)

// domainFreq is the number of steps between domain re-decompositions: the
// sampling decomposition and particle exchange run in the force evaluation
// that closes every step whose number (from 0) is a multiple of it, or in the
// priming evaluation of a run's first step when that step is one.
const domainFreq = 4

// Config configures a simulation. Zero values select the paper's defaults
// where one exists (Theta 0.4) and sensible values elsewhere. The octree's
// leaf and target-group sizes are the measured constants
// octree.DefaultNLeaf and octree.DefaultNGroup (32 and 128), not options.
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
	// For Milky Way models use units.SofteningForN.
	Softening float64
	// DT is the leapfrog time step in simulation units. Default 1e-3.
	DT float64
	// BoundaryDepth is the depth of the boundary tree every rank pushes to
	// every peer. Default 4.
	BoundaryDepth int

	// BlockSteps enables hierarchical power-of-two block timesteps
	// (block.go): each particle integrates on its own rung dt = DT/2^k
	// (k ≤ MaxRungs) chosen from its acceleration, a top-level step becomes
	// a sequence of at most 2^MaxRungs substeps, and only the active rung
	// block receives forces at each substep while every other particle
	// drifts. Across substeps the octree is reused: multipoles are refreshed
	// on the drifted positions and the tree is rebuilt only at top-of-step
	// barriers or when drift exceeds a fraction of the smallest leaf cell.
	// It is the switch for MaxRungs: without it, or with MaxRungs 0, every
	// particle shares the one step DT (the paper's leapfrog, the
	// hierarchy's one-rung case).
	BlockSteps bool
	// MaxRungs caps the timestep hierarchy depth (0–16) under BlockSteps.
	// Default 0.
	MaxRungs int
	// EtaDT is the accuracy parameter of the timestep criterion
	// dt_i = EtaDT·sqrt(Softening/|a_i|). Default 0.1.
	EtaDT float64

	// GravConst is the gravitational constant of the particle set's unit
	// system. Default 1 (model units, as ic.Plummer with g = 1 produces).
	// Milky Way models are in galactic units and need units.G. Forces are
	// linear in it, so it scales the accelerations and potentials after
	// each force evaluation.
	GravConst float64

	// Tracing enables the event-level observability layer: per-rank span
	// timelines, LET arrivals measured against local-walk completion, and a
	// per-evaluation metrics record folded over ranks into the fleet view
	// (held by rank 0); a NodeSimulation also meters its bytes per rank pair. Disabled (the default) it
	// costs one nil check per record point, sends no message, and does not
	// change results.
	Tracing bool
}

// letBuilders returns the LET-builder pool size (the paper's communication
// thread group) for dests destination ranks: max(2, WorkersPerRank), capped at
// dests.
func (c *Config) letBuilders(dests int) int {
	return min(max(2, c.WorkersPerRank), dests)
}

func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.WorkersPerRank <= 0 {
		c.WorkersPerRank = 1
	}
	if c.Theta <= 0 {
		c.Theta = 0.4
	}
	if c.Softening <= 0 {
		c.Softening = 0.01
	}
	if c.DT == 0 {
		c.DT = 1e-3
	}
	if c.BoundaryDepth <= 0 {
		c.BoundaryDepth = 4
	}
	if c.GravConst == 0 {
		c.GravConst = 1
	}
	if c.EtaDT <= 0 {
		c.EtaDT = 0.1
	}
	if !c.BlockSteps {
		c.MaxRungs = 0
	}
	return c
}

// Validate rejects configurations that would silently simulate garbage:
// non-finite or negative values of the numeric tunables (zero means "use the
// default" and stays legal), and out-of-range rung caps under BlockSteps. New
// and NewNode call it before filling defaults.
func (c Config) Validate() error {
	check := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sim: config %s = %v is not finite", name, v)
		}
		if v < 0 {
			return fmt.Errorf("sim: config %s = %v is negative", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"DT", c.DT}, {"Softening", c.Softening}, {"Theta", c.Theta}, {"EtaDT", c.EtaDT}, {"GravConst", c.GravConst}} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	if c.BlockSteps && (c.MaxRungs < 0 || c.MaxRungs > 16) {
		return fmt.Errorf("sim: config MaxRungs = %d outside [0, 16]", c.MaxRungs)
	}
	return nil
}

// Simulation is a running N-body system distributed over simulated ranks: the
// owner of an in-process mpi.World and one Node per rank. Every advancing
// method releases all nodes together, each on its own goroutine — the same
// SPMD step loop a multi-process run executes one rank per process — and
// folds what the ranks report. The gathers read the nodes' state directly and
// are not collective: call them from one goroutine, between advances.
type Simulation struct {
	world *mpi.World
	nodes []*Node
	recs  []obs.StepMetrics // the nodes' step records, FoldRanks' input
	rec   *obs.Recorder     // the ranks' one recorder; nil without Config.Tracing
	fleet *telemetry.Fleet  // nil without Config.Tracing
}

// New distributes the particles over cfg.Ranks simulated processes. The
// initial placement is an arbitrary even split; the first step's domain
// update moves every particle to its Hilbert-order owner. With cfg.Tracing
// the ranks share one recorder, the world meters its mailboxes into it, and
// the fleet view folds every evaluation.
func New(cfg Config, parts []body.Particle) (*Simulation, error) {
	return newSimulation(cfg, parts, 0)
}

// newSimulation is New with the tracing recorder's per-rank span capacity
// (<= 0 selects obs.DefaultSpanCap).
func newSimulation(cfg Config, parts []body.Particle, spanCap int) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(parts) == 0 {
		return nil, fmt.Errorf("sim: no particles")
	}
	if cfg.Ranks > len(parts) {
		return nil, fmt.Errorf("sim: %d ranks for %d particles", cfg.Ranks, len(parts))
	}
	s := &Simulation{world: mpi.NewWorld(cfg.Ranks), recs: make([]obs.StepMetrics, cfg.Ranks)}
	if cfg.Tracing {
		s.rec = obs.New(cfg.Ranks, spanCap)
		s.fleet = telemetry.NewFleet(s.rec, cfg.Ranks)
	}
	for r := 0; r < cfg.Ranks; r++ {
		n, err := newNode(cfg, s.world, r, SliceForRank(parts, r, cfg.Ranks), s.rec)
		if err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, n)
	}
	return s, nil
}

// Config returns the effective (default-filled) configuration.
func (s *Simulation) Config() Config { return s.nodes[0].cfg }

// World exposes the message-passing runtime, for traffic accounting.
func (s *Simulation) World() *mpi.World { return s.world }

// Recorder returns the ranks' tracing recorder, nil without Config.Tracing.
func (s *Simulation) Recorder() *obs.Recorder { return s.rec }

// Fleet returns the run's fleet view, nil without Config.Tracing.
func (s *Simulation) Fleet() *telemetry.Fleet { return s.fleet }

// Time returns the current simulation time.
func (s *Simulation) Time() float64 { return s.nodes[0].Time() }

// StepCount returns the number of completed steps.
func (s *Simulation) StepCount() int { return s.nodes[0].StepCount() }

// advance runs fn on every node concurrently, waits, and streams the fold of
// the nodes' evaluation records.
func (s *Simulation) advance(fn func(i int, n *Node)) {
	var wg sync.WaitGroup
	for i, n := range s.nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			fn(i, n)
		}(i, n)
	}
	wg.Wait()
	s.stream()
}

// stream hands the fleet view every evaluation of the advance just run, the
// nodes' records of it side by side — what rank 0 of a multi-process run
// receives from telemetry.GatherStep. No-op when tracing is disabled.
func (s *Simulation) stream() {
	if s.fleet == nil {
		return
	}
	per := make([]obs.StepMetrics, len(s.nodes))
	for e := range s.nodes[0].Records() {
		for i, n := range s.nodes {
			per[i] = n.Records()[e]
		}
		s.fleet.Observe(per)
	}
}

// Step advances the system by one top-level leapfrog step and returns the
// cross-rank record of the step's force computation (see Node.Step).
func (s *Simulation) Step() (m obs.StepMetrics) {
	s.advance(func(i int, n *Node) { s.recs[i] = n.Step() })
	obs.FoldRanks(&m, s.recs)
	return m
}

// Run advances n steps and returns the per-step records.
func (s *Simulation) Run(n int) []obs.StepMetrics {
	out := make([]obs.StepMetrics, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.Step())
	}
	return out
}

// ComputeForces runs one full force evaluation without advancing time (see
// Node.ComputeForces). Useful for scaling measurements: the paper's
// benchmarks time force iterations.
func (s *Simulation) ComputeForces() (m obs.StepMetrics) {
	s.advance(func(i int, n *Node) { s.recs[i] = n.ComputeForces() })
	obs.FoldRanks(&m, s.recs)
	return m
}

// SetClock fast-forwards every rank's step counter and simulation time; see
// Node.SetClock.
func (s *Simulation) SetClock(step int, time float64) {
	for _, n := range s.nodes {
		n.SetClock(step, time)
	}
}

// Particles gathers all particles, sorted by ID, with their current state.
func (s *Simulation) Particles() []body.Particle {
	var all []body.Particle
	for _, n := range s.nodes {
		all = append(all, n.r.parts...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// Accelerations gathers the most recent accelerations and potentials,
// ordered to match Particles().
func (s *Simulation) Accelerations() ([]vec.V3, []float64) {
	type rec struct {
		id  int64
		acc vec.V3
		pot float64
	}
	var all []rec
	for _, n := range s.nodes {
		r := n.r
		for i := range r.parts {
			all = append(all, rec{r.parts[i].ID, r.acc[i], r.pot[i]})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	acc := make([]vec.V3, len(all))
	pot := make([]float64, len(all))
	for i, a := range all {
		acc[i] = a.acc
		pot[i] = a.pot
	}
	return acc, pot
}

// Energy returns the total kinetic and potential energy from the most recent
// force evaluation; see rank.energy for the weighting.
func (s *Simulation) Energy() (kin, pot float64) {
	for _, n := range s.nodes {
		kin, pot = n.r.energy(kin, pot)
	}
	return kin, pot
}

// Momentum returns the total linear momentum.
func (s *Simulation) Momentum() vec.V3 {
	var p vec.V3
	for _, n := range s.nodes {
		r := n.r
		for i := range r.parts {
			p = p.Add(r.parts[i].Vel.Scale(r.parts[i].Mass))
		}
	}
	return p
}

// Owners returns, for every particle ordered by ID, the rank that currently
// owns it — the domain-decomposition map.
func (s *Simulation) Owners() []int {
	type rec struct {
		id   int64
		rank int
	}
	var all []rec
	for ri, n := range s.nodes {
		r := n.r
		for i := range r.parts {
			all = append(all, rec{r.parts[i].ID, ri})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	out := make([]int, len(all))
	for i, a := range all {
		out[i] = a.rank
	}
	return out
}

// RankCounts returns the current particle count per rank (load balance
// diagnostics).
func (s *Simulation) RankCounts() []int {
	out := make([]int, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = len(n.r.parts)
	}
	return out
}
