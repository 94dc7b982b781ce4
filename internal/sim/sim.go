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
//  7. second-order leapfrog (KDK) integration
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
	"bonsai/internal/vec"
)

// Config are the tunables of a simulation. Zero values select defaults.
type Config struct {
	Ranks          int     // simulated MPI processes (default 1)
	WorkersPerRank int     // compute workers per rank (default 1)
	Theta          float64 // opening angle (default 0.4, the paper's choice)
	Eps            float64 // Plummer softening length (default 0.01)
	DT             float64 // leapfrog time step (default 1e-3)
	NLeaf          int     // max particles per leaf (default 16)
	NGroup         int     // target group size (default 64)
	BoundaryDepth  int     // boundary-tree depth (default 4)
	DomainFreq     int     // steps between domain updates (default 4)

	// BlockSteps enables hierarchical power-of-two block timesteps: each
	// particle integrates at DT/2^rung with the rung chosen from the
	// acceleration criterion dt_i = EtaDT*sqrt(Eps/|a_i|), and a top-level
	// step becomes a sequence of substeps in which only the active rung
	// block gets forces while every other particle drifts. Across substeps
	// the octree is reused: multipoles are refreshed on the drifted
	// positions and the tree is rebuilt only at top-of-step boundaries or
	// when drift exceeds a fraction of the smallest leaf cell. Off (the
	// default) keeps the global-dt leapfrog bit-for-bit.
	BlockSteps bool
	// MaxRungs caps the rung hierarchy: the finest per-particle step is
	// DT/2^MaxRungs and a top-level step runs at most 2^MaxRungs substeps.
	// 0 (one shared block) makes the block path bitwise-identical to the
	// global-dt leapfrog. Only meaningful with BlockSteps.
	MaxRungs int
	// EtaDT is the accuracy parameter of the timestep criterion
	// dt_i = EtaDT*sqrt(Eps/|a_i|) (default 0.1). Only meaningful with
	// BlockSteps and MaxRungs > 0.
	EtaDT float64

	// G is the gravitational constant of the unit system (default 1).
	// Milky Way models in galactic units (kpc, km/s, 1e10 M⊙) need
	// units.G = 43007.1. Forces are linear in G, so it scales the
	// accelerations and potentials after each force evaluation.
	G float64

	// External, if non-nil, adds a static analytic field to the particle
	// self-gravity: the paper's §I "type 1" simulations (analytic dark
	// halo + live disk). It must be thread-safe; it receives a position
	// and returns the acceleration and specific potential of the field.
	// The returned values are NOT scaled by G (supply physical values).
	External func(pos vec.V3) (acc vec.V3, pot float64)

	// SerialLET disables all communication/compute overlap in the gravity
	// phase: outgoing LETs are built and pushed on the compute thread
	// before the local tree-walk, and incoming ones are walked only after
	// it completes, in ascending peer order. Kept as the deterministic
	// reference the bitwise equivalence suites compare against and as the
	// non-overlapped baseline of BenchmarkOverlap.
	SerialLET bool

	// Obs, if non-nil, enables event-level tracing and metrics: every rank
	// records phase spans and gravity-pipeline events (LET build/send/
	// recv/walk, arrivals vs local-walk completion) into the recorder's
	// per-rank buffers, the MPI layer meters queue depth and
	// per-pair bytes, and a per-evaluation metrics record is appended after
	// every force computation. The recorder must have been created for
	// exactly Ranks ranks. nil (the default) disables all of it at the
	// cost of a single branch per record point; results are unaffected
	// either way.
	Obs *obs.Recorder
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
	if c.Eps <= 0 {
		c.Eps = 0.01
	}
	if c.DT == 0 {
		c.DT = 1e-3
	}
	if c.NLeaf <= 0 {
		c.NLeaf = 16
	}
	if c.NGroup <= 0 {
		c.NGroup = 64
	}
	if c.BoundaryDepth <= 0 {
		c.BoundaryDepth = 4
	}
	if c.DomainFreq <= 0 {
		c.DomainFreq = 4
	}
	if c.G == 0 {
		c.G = 1
	}
	if c.EtaDT <= 0 {
		c.EtaDT = 0.1
	}
	return c
}

// Validate rejects configurations that would silently simulate garbage:
// non-finite or negative values of the numeric tunables (zero means "use the
// default" and stays legal), and out-of-range rung caps. New and NewNode call
// it before filling defaults.
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
	}{{"DT", c.DT}, {"Eps", c.Eps}, {"Theta", c.Theta}, {"EtaDT", c.EtaDT}, {"G", c.G}} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	if c.MaxRungs < 0 || c.MaxRungs > 16 {
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
}

// New distributes the particles over cfg.Ranks simulated processes. The
// initial placement is an arbitrary even split; the first step's domain
// update moves every particle to its Hilbert-order owner.
func New(cfg Config, parts []body.Particle) (*Simulation, error) {
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
	s := &Simulation{world: mpi.NewWorld(cfg.Ranks)}
	if cfg.Obs != nil {
		s.world.EnableObs(cfg.Obs.Metrics().QueueDepthHist())
		s.world.ObserveFrameBytes(cfg.Obs.Metrics().FrameBytesHist())
	}
	for r := 0; r < cfg.Ranks; r++ {
		n, err := NewNode(cfg, s.world, r, SliceForRank(parts, r, cfg.Ranks))
		if err != nil {
			return nil, err
		}
		n.hold = true // merged across ranks by mergeMetrics, not streamed per rank
		s.nodes = append(s.nodes, n)
	}
	return s, nil
}

// Config returns the effective (default-filled) configuration.
func (s *Simulation) Config() Config { return s.nodes[0].cfg }

// World exposes the message-passing runtime, for traffic accounting.
func (s *Simulation) World() *mpi.World { return s.world }

// Time returns the current simulation time.
func (s *Simulation) Time() float64 { return s.nodes[0].Time() }

// StepCount returns the number of completed steps.
func (s *Simulation) StepCount() int { return s.nodes[0].StepCount() }

// Substep returns the current substep barrier (0 at top of step). Only
// meaningful with Config.BlockSteps.
func (s *Simulation) Substep() int { return s.nodes[0].Substep() }

// advance runs fn on every node concurrently, waits, and folds the per-rank
// metrics records the nodes held back into the recorder's stream.
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
	s.mergeMetrics()
}

// mergeMetrics appends one cross-rank record per evaluation of the advance
// just run — the obs.MergeStepMetrics fold of the nodes' per-rank records,
// the same one the telemetry collector applies to a multi-process stream —
// and feeds the imbalance histogram. No-op when tracing is disabled.
func (s *Simulation) mergeMetrics() {
	rec := s.nodes[0].cfg.Obs
	if rec == nil {
		return
	}
	var per []obs.StepMetrics
	for _, n := range s.nodes {
		per = append(per, n.held...)
		n.held = n.held[:0]
	}
	for _, m := range obs.MergeStepMetrics(per) {
		rec.Metrics().ImbalanceHist().Observe(int64((m.MaxStepMS - m.MeanStepMS) * 1e6))
		rec.AddStep(m)
	}
}

// Step advances the system by one leapfrog step (kick-drift-kick) and
// returns the aggregated statistics of the force computation. With
// Config.BlockSteps the step runs as a sequence of block-timestep substeps
// (see block.go); the returned stats then sum every substep evaluation.
func (s *Simulation) Step() StepStats {
	rs := make([]RankStats, len(s.nodes))
	s.advance(func(i int, n *Node) { rs[i] = n.Step() })
	out := aggregate(s.StepCount(), rs)
	out.Substeps, out.Rebuilds, out.ActiveFrac = s.nodes[0].BlockSummary()
	return out
}

// Run advances n steps and returns the per-step statistics.
func (s *Simulation) Run(n int) []StepStats {
	out := make([]StepStats, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.Step())
	}
	return out
}

// ComputeForces runs the force pipeline once without advancing time. Useful
// for scaling measurements (the paper's benchmarks time force iterations):
// every call runs the full pipeline, including the domain update when the
// current step is an update epoch.
func (s *Simulation) ComputeForces() StepStats {
	rs := make([]RankStats, len(s.nodes))
	s.advance(func(i int, n *Node) { rs[i] = n.ComputeForces() })
	return aggregate(s.StepCount(), rs)
}

// SubstepN advances n occupied substep barriers (block-timestep runs only)
// and returns true when the advance crossed the top-of-step barrier, which
// also completes the step and advances the clock. Exposed for restart tests
// and substep-resolution drivers; Step() remains the normal entry point.
func (s *Simulation) SubstepN(n int) (done bool, err error) {
	s.advance(func(i int, nd *Node) {
		if d, e := nd.SubstepN(n); i == 0 {
			done, err = d, e
		}
	})
	return done, err
}

// RestoreSubstep resumes a block-timestep run from a snapshot taken at a
// substep barrier on every rank; see Node.RestoreSubstep.
func (s *Simulation) RestoreSubstep(sub int) error {
	for _, n := range s.nodes {
		if err := n.RestoreSubstep(sub); err != nil {
			return err
		}
	}
	return nil
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
// ordered to match Particles(). The potential is the physical specific
// potential each particle sits in: self-gravity plus the external analytic
// field when Config.External is set.
func (s *Simulation) Accelerations() ([]vec.V3, []float64) {
	type rec struct {
		id  int64
		acc vec.V3
		pot float64
	}
	var all []rec
	for _, n := range s.nodes {
		r := n.r
		ext := len(r.extPot) == len(r.parts) && len(r.extPot) > 0
		for i := range r.parts {
			p := r.pot[i]
			if ext {
				p += r.extPot[i]
			}
			all = append(all, rec{r.parts[i].ID, r.acc[i], p})
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
