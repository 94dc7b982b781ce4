package main

import (
	"fmt"
	"log"
	"runtime"

	"bonsai"
)

// simFlags are the command-line flags that describe the simulation itself.
// The in-process run and every forked worker parse the same command line, so
// both resolve the same run from them.
type simFlags struct {
	model      string
	n          int
	seed       int64
	restore    string
	ranks      int
	workers    int
	theta      float64
	eps        float64
	dt         float64
	maxRungs   int
	etaDT      float64
	serialLET  bool
	steps      int
	snapEvery  int
	snapPrefix string
	quiet      bool
}

// run is a resolved simulation: the global particle set, the configuration
// every rank steps under, and the clock offsets a -restore run reports its
// steps and times against.
type run struct {
	simFlags
	parts     []bonsai.Particle
	cfg       bonsai.Config
	startStep int
	startTime float64
}

// newRun loads or generates the global particle set and fills the N-derived
// defaults. Initial conditions are deterministic in (model, n, seed), so every
// worker of a multi-process run derives the identical set and parameters.
func newRun(f simFlags, tracing bool) *run {
	r := &run{simFlags: f}
	switch {
	case f.restore != "":
		var err error
		r.startTime, r.startStep, r.parts, err = bonsai.LoadSnapshot(f.restore)
		if err != nil {
			log.Fatal(err)
		}
	case f.model == "milkyway":
		r.parts = bonsai.NewMilkyWay(f.n, f.seed)
	case f.model == "plummer":
		r.parts = bonsai.NewPlummer(f.n, 1, 1, 1, f.seed)
	default:
		log.Fatalf("unknown model %q", f.model)
	}

	// A Plummer sphere is in model units (G = M = a = 1), generated or
	// restored with -model plummer; Milky Way models and other snapshots are
	// in galactic units.
	modelUnits := f.model == "plummer"
	gconst := bonsai.G
	if modelUnits {
		gconst = 1
	}
	if r.eps == 0 {
		r.eps = bonsai.SofteningForN(len(r.parts))
	}
	if r.dt == 0 {
		if modelUnits {
			r.dt = 0.01 // a fraction of the dynamical time
		} else {
			// The paper's softening-crossing criterion, capped by the
			// disk's orbital timescale (binding at reduced N).
			r.dt = bonsai.SuggestedDT(len(r.parts))
		}
	}
	if r.workers == 0 {
		r.workers = max(1, runtime.GOMAXPROCS(0)/r.ranks)
	}
	r.cfg = bonsai.Config{
		Ranks:          r.ranks,
		WorkersPerRank: r.workers,
		Theta:          r.theta,
		Softening:      r.eps,
		DT:             r.dt,
		BlockSteps:     r.maxRungs != 0,
		MaxRungs:       r.maxRungs,
		EtaDT:          r.etaDT,
		GravConst:      gconst,
		SerialLET:      r.serialLET,
		Tracing:        tracing,
	}
	return r
}

// printHeader describes the run; how names where the ranks live.
func (r *run) printHeader(how string) {
	if r.restore != "" {
		fmt.Printf("restored %d particles at t=%.4f (step %d)\n", len(r.parts), r.startTime, r.startStep)
	}
	fmt.Printf("N=%d ranks=%d (%s) workers/rank=%d theta=%.2f eps=%.4f kpc dt=%.3e (%.2f Myr)\n",
		len(r.parts), r.ranks, how, r.workers, r.theta, r.eps, r.dt, bonsai.Gyr(r.dt)*1e3)
}

// stepper is what the step loop drives: a bonsai.Simulation in-process, one
// rank's bonsai.NodeSimulation in a worker. On a worker Step and Energy are
// collective, so every rank runs the same loop and only the narrator prints.
type stepper interface {
	Step() bonsai.StepStats
	Energy() (kin, pot float64)
	StepCount() int
	Time() float64
}

// loop advances d to the run's final step. narrate selects whether this
// caller prints and saves (every rank gathers; one writes). gather returns the
// global particle set for a snapshot (nil off the root rank), and afterStep,
// if non-nil, runs at the end of every step. A restored block-timestep run
// keeps the rungs its snapshot or checkpoint carries: the engine decides that
// from the particles.
func (r *run) loop(d stepper, narrate bool, gather func() []bonsai.Particle, afterStep func()) {
	for d.StepCount() < r.steps {
		st := d.Step()
		step := r.startStep + d.StepCount()
		if !r.quiet {
			k, p := d.Energy()
			if narrate {
				r.printStep(step, d.Time(), k+p, st)
			}
		}
		if r.snapEvery > 0 && d.StepCount()%r.snapEvery == 0 {
			all := gather()
			if narrate {
				path := fmt.Sprintf("%s_%05d.snap", r.snapPrefix, step)
				if err := bonsai.SaveSnapshot(path, r.startTime+d.Time(), step, all); err != nil {
					log.Fatal(err)
				}
				if !r.quiet {
					fmt.Printf("  snapshot -> %s\n", path)
				}
			}
		}
		if afterStep != nil {
			afterStep()
		}
	}
}

// printStep prints one step line: the paper's Table II phases, interaction
// counts, and the block-timestep summary when on.
func (r *run) printStep(step int, t, energy float64, st bonsai.StepStats) {
	ms := func(d interface{ Seconds() float64 }) float64 { return d.Seconds() * 1e3 }
	suffix := ""
	if st.Substeps > 0 {
		suffix = fmt.Sprintf("  sub %d/%d reb, active %3.0f%%", st.Substeps, st.Rebuilds, st.ActiveFrac*100)
	}
	fmt.Printf("step %4d  t=%7.2f Myr  E=%12.5e  step=%6.0f ms  [sort+build %3.0f dom %3.0f props %3.0f grav %4.0f+%4.0f comm %3.0f]  pp/pc %.0f/%.0f  %5.2f Gflop/s%s\n",
		step, bonsai.Gyr(r.startTime+t)*1e3, energy, ms(st.MaxTimes.Total),
		ms(st.Times.SortBuild), ms(st.Times.Domain), ms(st.Times.TreeProps),
		ms(st.Times.GravLocal), ms(st.Times.GravLET), ms(st.Times.NonHiddenComm),
		st.PPPerParticle, st.PCPerParticle, st.AppGflops, suffix)
}

// printDone prints the closing summary; comm labels whose traffic commBytes
// counts.
func (r *run) printDone(t, kin, pot float64, comm string, commBytes int64) {
	fmt.Printf("done: t=%.4f Gyr, E=%.5e K=%.4e W=%.4e, %s=%.1f MB\n",
		bonsai.Gyr(r.startTime+t), kin+pot, kin, pot, comm, float64(commBytes)/1e6)
}
