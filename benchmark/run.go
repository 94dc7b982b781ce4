package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bonsai"
)

// setupRepeats is how often a run sets the workload up; setup_s is the median.
const setupRepeats = 3

// metricSet collects one run's metric values and its operation count: every
// timed step, checkpoint and output check is one operation.
type metricSet struct {
	vals              map[string]float64
	attempted, failed int
}

func newMetricSet() *metricSet { return &metricSet{vals: map[string]float64{}} }

func (m *metricSet) set(name string, v float64) { m.vals[name] = v }

// check counts one operation and reports it on stderr when it failed.
func (m *metricSet) check(ok bool, format string, args ...any) {
	m.attempted++
	if !ok {
		m.failed++
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// runSize is how much a run measures; the harness tests shrink it.
type runSize struct {
	Steps   int // timed steps
	Replays int // replayed evaluations of a traced run
}

// setup realises the workload's particles from the seed, creates the program
// instance and runs the warm-up steps. The returned seconds cover exactly
// that; icSec is the share spent generating particles.
func setup(tr *tracer, w workload, cfg bonsai.Config, seed int64, scratch string) (drv *driver, sec, icSec float64, err error) {
	t0 := time.Now()
	sp := tr.begin("ic.realize", 0, -1)
	parts := w.Gen(w.N, seed)
	tr.end(sp)
	icSec = time.Since(t0).Seconds()
	sp = tr.begin("sim.new", 0, -1)
	drv, err = newDriver(w, cfg, parts, scratch)
	tr.end(sp)
	if err != nil {
		return nil, 0, 0, err
	}
	sp = tr.begin("sim.warmup", 0, -1)
	for i := 0; i < warmupSteps; i++ {
		drv.Step()
	}
	tr.end(sp)
	return drv, time.Since(t0).Seconds(), icSec, nil
}

// runEndToEnd is the tracing-off run: the numbers a user of the program sees.
func runEndToEnd(w workload, seed int64, size runSize, scratch string) (*metricSet, error) {
	m := newMetricSet()
	cfg := w.Cfg(w.N)
	var drv *driver
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if drv != nil {
			// Collect the discarded instance, so that peak_rss_mb is that of
			// one program instance and not of the harness's repetition.
			drv.Close()
			drv = nil
			runtime.GC()
		}
		var sec float64
		var err error
		if drv, sec, _, err = setup(nil, w, cfg, seed, scratch); err != nil {
			return nil, err
		}
		setups = append(setups, sec)
	}
	defer drv.Close()
	m.set("setup_s", median(setups))

	// The first timed state: what the force error and the twin are judged on.
	start := drv.Particles()
	var startAcc []bonsai.Vec3
	if drv.sim != nil {
		startAcc, _ = drv.sim.Accelerations()
	}
	kin, pot := drv.Energy()
	e0 := kin + pot

	stepSec := make([]float64, 0, size.Steps)
	loop := time.Now()
	for i := 1; i <= size.Steps; i++ {
		t0 := time.Now()
		st := drv.Step()
		stepSec = append(stepSec, time.Since(t0).Seconds())
		kin, pot = drv.Energy()
		m.check(st.N == w.N && isFinite(kin+pot), "step %d: N=%d (want %d), E=%g", i, st.N, w.N, kin+pot)
		if w.CheckpointEvery > 0 && i%w.CheckpointEvery == 0 {
			err := drv.Checkpoint()
			m.check(err == nil, "checkpoint after step %d: %v", i, err)
		}
	}
	wall := time.Since(loop).Seconds()
	m.set("step_s", median(stepSec))
	m.set("step_p90_s", percentile(stepSec, 0.9))
	m.set("particle_steps_per_s", float64(w.N*size.Steps)/wall)
	// Gated, not reported: the drift differs between seeds by more than any
	// bound the contract allows. The traced run reports sim.energy_drift_rel.
	drift := math.Abs((kin + pot - e0) / e0)
	m.check(drift <= w.DriftCeil, "energy drift %g over ceiling %g", drift, w.DriftCeil)
	fmt.Fprintf(os.Stderr, "%s: energy drift %.3g over %d steps\n", w.Name, drift, size.Steps)

	checkFinalState(m, w, seed, drv.Particles())
	if w.Unix {
		twin, err := newTwin(w, cfg, seed)
		if err != nil {
			return nil, err
		}
		rms, box := rmsDistance(start, twin.Particles())
		m.check(rms < 1e-9*box, "socket run is rms %g from its in-process twin (box %g)", rms, box)
		startAcc, _ = twin.Accelerations()
	}
	// The bounded metric is the 90th percentile: the 99th differs between
	// seeds by up to 29%, more than any bound allows, so it is gated only.
	direct, _ := directAcc(nil, start, cfg)
	p90, p99 := forceErr(startAcc, direct)
	m.set("force_err_p90", p90)
	m.check(p99 <= w.ErrCeil, "force error p99 %g over ceiling %g", p99, w.ErrCeil)
	fmt.Fprintf(os.Stderr, "%s: force error p99 %.3g\n", w.Name, p99)
	m.set("peak_rss_mb", peakRSSMB())
	return m, nil
}

// checkFinalState gates the particle set the run ended on: every coordinate
// finite, count and total mass those of the generated input. Linear momentum
// is reported on stderr, not gated: a tree code does not conserve it exactly.
func checkFinalState(m *metricSet, w workload, seed int64, end []bonsai.Particle) {
	finite := true
	var mass, px, py, pz float64
	for _, p := range end {
		finite = finite && isFinite(p.Pos.X+p.Pos.Y+p.Pos.Z+p.Vel.X+p.Vel.Y+p.Vel.Z)
		mass += p.Mass
		px, py, pz = px+p.Mass*p.Vel.X, py+p.Mass*p.Vel.Y, pz+p.Mass*p.Vel.Z
	}
	m.check(finite && len(end) == w.N, "final state: %d particles (want %d), finite=%v", len(end), w.N, finite)
	var mass0 float64
	for _, p := range w.Gen(w.N, seed) {
		mass0 += p.Mass
	}
	m.check(math.Abs(mass-mass0) <= 1e-12*mass0, "total mass %g, generated %g", mass, mass0)
	fmt.Fprintf(os.Stderr, "%s: final momentum (%.3g, %.3g, %.3g)\n", w.Name, px, py, pz)
}

// newTwin steps an in-process Simulation of the workload through the warm-up:
// the referee for a socket run, and the source of rank ownership and of a
// reference evaluation for the replay.
func newTwin(w workload, cfg bonsai.Config, seed int64) (*bonsai.Simulation, error) {
	twin, err := bonsai.New(cfg, w.Gen(w.N, seed))
	if err != nil {
		return nil, err
	}
	twin.Run(warmupSteps)
	return twin, nil
}

// directAcc returns the O(N^2) reference accelerations with G applied, and
// the seconds the summation took.
func directAcc(tr *tracer, parts []bonsai.Particle, cfg bonsai.Config) ([]bonsai.Vec3, float64) {
	t0 := time.Now()
	sp := tr.begin("direct.forces", 0, -1)
	acc, _ := bonsai.DirectForces(parts, cfg.Softening)
	tr.end(sp)
	sec := time.Since(t0).Seconds()
	g := gravConst(cfg)
	for i, a := range acc {
		acc[i] = bonsai.Vec3{X: g * a.X, Y: g * a.Y, Z: g * a.Z}
	}
	return acc, sec
}

// gravConst is the constant the facade scales forces by: unset means 1.
func gravConst(cfg bonsai.Config) float64 {
	if cfg.GravConst == 0 {
		return 1
	}
	return cfg.GravConst
}

// forceErr returns the 90th and 99th percentile over particles of
// |a - ref| / |ref|.
func forceErr(acc, ref []bonsai.Vec3) (p90, p99 float64) {
	rel := make([]float64, len(ref))
	for i, r := range ref {
		dx, dy, dz := acc[i].X-r.X, acc[i].Y-r.Y, acc[i].Z-r.Z
		rel[i] = math.Sqrt((dx*dx + dy*dy + dz*dz) / (r.X*r.X + r.Y*r.Y + r.Z*r.Z))
	}
	return percentile(rel, 0.9), percentile(rel, 0.99)
}

// rmsDistance returns the rms position difference of two ID-ordered particle
// sets and the longest side of the box that holds the first.
func rmsDistance(a, b []bonsai.Particle) (rms, size float64) {
	if len(a) != len(b) {
		return math.Inf(1), 1
	}
	lo := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	var sum float64
	for i := range a {
		pa, pb := [3]float64{a[i].Pos.X, a[i].Pos.Y, a[i].Pos.Z}, [3]float64{b[i].Pos.X, b[i].Pos.Y, b[i].Pos.Z}
		for k := range pa {
			sum += (pa[k] - pb[k]) * (pa[k] - pb[k])
			lo[k], hi[k] = min(lo[k], pa[k]), max(hi[k], pa[k])
		}
	}
	return math.Sqrt(sum / float64(len(a))), max(hi[0]-lo[0], hi[1]-lo[1], hi[2]-lo[2])
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// runPerLayer is the traced run: probes of single layers on the workload's
// post-warm-up particles, the public StepStats averaged over tracing-off
// steps, the layer replay, and the same steps again with Config.Tracing on.
// The harness's own spans go to tracePath.
func runPerLayer(w workload, seed int64, size runSize, scratch, tracePath string) (*metricSet, error) {
	m := newMetricSet()
	tr := newTracer()
	cfg := w.Cfg(w.N)

	drv, _, icSec, err := setup(tr, w, cfg, seed, scratch)
	if err != nil {
		return nil, err
	}
	m.set("ic.realize_s", icSec)
	untraced, err := stepStats(m, tr, w, drv, size.Steps, 1)
	drv.Close()
	if err != nil {
		return nil, err
	}

	// The reference evaluation: an in-process twin gives the post-warm-up
	// particles, who owns them, and the program's own interaction count.
	twin, err := newTwin(w, cfg, seed)
	if err != nil {
		return nil, err
	}
	parts, owners := twin.Particles(), twin.Owners()

	eps2 := cfg.Softening * cfg.Softening
	probeGrav(m, parts, eps2)
	probeOctree(m, parts, cfg.Theta, eps2)
	probeKeys(m, parts)
	probeDomain(m, parts, owners, cfg.Ranks)
	if err := probeSnapshot(m, parts, scratch); err != nil {
		return nil, err
	}

	// Each replay is timed next to one evaluation of the program itself, so
	// that a slow episode of the host cancels out of their ratio.
	var evals []map[string]float64
	var overStep []float64
	var last replayResult
	var ref bonsai.StepStats
	for i := 0; i < size.Replays; i++ {
		t0 := time.Now()
		ref = twin.ComputeForces()
		refSec := time.Since(t0).Seconds()
		id := 1000 + i
		last = replay(tr, id, parts, owners, cfg)
		evals = append(evals, selfByName(tr.spans, id))
		overStep = append(overStep, last.Seconds/refSec)
	}
	probeLettree(m, evals, last)
	if err := probeMPI(m, cfg.Ranks, int(last.BoundaryBytes)/last.Ranks, scratch); err != nil {
		return nil, err
	}
	m.check(last.ForcedAccepts == 0, "replay forced %d accepts", last.ForcedAccepts)
	direct, directSec := directAcc(tr, parts, cfg)
	m.set("direct.forces_s", directSec)
	_, p99 := forceErr(last.Acc, direct)
	m.check(p99 <= w.ErrCeil, "replay force error p99 %g over ceiling %g", p99, w.ErrCeil)

	// One goroutine replays what the program spreads over its ranks, so the
	// replay sums to the step only where there is a single rank.
	over := median(overStep)
	m.set("ladder.replay_over_step", over)
	if cfg.Ranks == 1 {
		m.check(over >= 0.85 && over <= 1.15, "replay takes %.3f of the step, want 0.85-1.15", over)
	}
	pp := float64(last.Local.PP+last.Local.PC+last.Remote.PP+last.Remote.PC) / float64(ref.PP+ref.PC)
	m.set("ladder.replay_pp_ratio", pp)
	m.check(pp >= 0.9 && pp <= 1.1, "replay evaluates %.3f of the program's interactions, want 0.9-1.1", pp)
	m.check(m.vals["sim.phase_sum_gap"] < 0.02, "phase rows miss the step total by %.3f", m.vals["sim.phase_sum_gap"])

	tcfg := cfg
	tcfg.Tracing = true
	drv, _, _, err = setup(tr, w, tcfg, seed, scratch)
	if err != nil {
		return nil, err
	}
	traced, err := stepStats(nil, tr, w, drv, size.Steps, 1+size.Steps)
	drv.Close()
	if err != nil {
		return nil, err
	}
	m.set("obs.trace_overhead_frac", traced/untraced-1)

	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	return m, tr.writeChrome(tracePath)
}

// stepStats runs steps timed steps under sim.step spans (ids from firstID)
// and returns the median wall-clock of Step between the harness's barriers.
// When m is non-nil it reduces the public StepStats to the sim.*, domain.*,
// mpi.*, snapshot.checkpoint_s, proc.* and ladder.walk_over_step metrics.
func stepStats(m *metricSet, tr *tracer, w workload, drv *driver, steps, firstID int) (float64, error) {
	var sum bonsai.StepStats
	var stepSec, ckptSec, countImb []float64
	var app, walk, active float64
	kin, pot := drv.Energy()
	e0 := kin + pot
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		sp := tr.begin("sim.step", firstID+i, -1)
		t0 := time.Now()
		st := drv.Step()
		stepSec = append(stepSec, time.Since(t0).Seconds())
		tr.end(sp)
		addStats(&sum, st)
		peak := phases(&sum.MaxTimes)
		for k, d := range phases(&st.MaxTimes) {
			*peak[k] += *d
		}
		sum.Substeps += st.Substeps
		sum.Rebuilds += st.Rebuilds
		app, walk, active = app+st.AppGflops, walk+st.WalkGflops, active+st.ActiveFrac
		counts := drv.RankCounts()
		peakN := 0
		for _, c := range counts {
			peakN = max(peakN, c)
		}
		countImb = append(countImb, float64(peakN*len(counts))/float64(w.N))
		if w.CheckpointEvery > 0 && (i+1)%w.CheckpointEvery == 0 {
			sp := tr.begin("snapshot.checkpoint", firstID+i, -1)
			t0 := time.Now()
			err := drv.Checkpoint()
			ckptSec = append(ckptSec, time.Since(t0).Seconds())
			tr.end(sp)
			if err != nil {
				return 0, err
			}
		}
	}
	runtime.ReadMemStats(&after)
	kin, pot = drv.Energy()
	n := float64(steps)
	if m == nil {
		return median(stepSec), nil
	}
	t, peak := sum.Times, sum.MaxTimes
	rows := t.SortBuild + t.Domain + t.TreeProps + t.GravLocal + t.GravLET + t.NonHiddenComm + t.Other
	m.set("sim.sortbuild_s", t.SortBuild.Seconds()/n)
	m.set("sim.domain_s", t.Domain.Seconds()/n)
	m.set("sim.props_s", t.TreeProps.Seconds()/n)
	m.set("sim.grav_local_s", t.GravLocal.Seconds()/n)
	m.set("sim.grav_let_s", t.GravLET.Seconds()/n)
	m.set("sim.nonhidden_comm_s", t.NonHiddenComm.Seconds()/n)
	m.set("sim.other_s", t.Other.Seconds()/n)
	m.set("sim.phase_sum_gap", math.Abs(float64(t.Total-rows))/float64(t.Total))
	m.set("sim.max_over_mean", float64(peak.Total)/float64(t.Total))
	m.set("sim.overlap_frac", ratio(float64(sum.LETsOverlapped), float64(sum.LETsRecv)))
	m.set("sim.recv_idle_s", sum.RecvIdle.Seconds()/n)
	m.set("sim.lets_sent_per_step", float64(sum.LETsSent)/n)
	m.set("sim.boundary_used_per_step", float64(sum.BoundaryUsed)/n)
	m.set("sim.app_gflops", app/n)
	m.set("sim.walk_gflops", walk/n)
	m.set("sim.substeps_per_step", float64(sum.Substeps)/n)
	m.set("sim.active_frac", active/n)
	m.set("sim.rebuilds_per_step", float64(sum.Rebuilds)/n)
	m.set("sim.energy_drift_rel", math.Abs((kin+pot-e0)/e0))
	m.set("domain.count_imbalance", mean(countImb))
	m.set("domain.work_imbalance", ratio(float64(peak.GravLocal+peak.GravLET), float64(t.GravLocal+t.GravLET)))
	m.set("mpi.bytes_per_step", float64(sum.BytesSent)/n)
	m.set("mpi.msgs_per_step", float64(sum.LETsSent+sum.BoundarySent)/n)
	m.set("snapshot.checkpoint_s", median(ckptSec))
	m.set("proc.alloc_mb_per_step", float64(after.TotalAlloc-before.TotalAlloc)/1e6/n)
	m.set("proc.gc_per_step", float64(after.NumGC-before.NumGC)/n)
	m.set("ladder.walk_over_step", float64(t.GravLocal+t.GravLET)/float64(t.Total))
	return median(stepSec), nil
}
