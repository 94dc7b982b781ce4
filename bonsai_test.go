package bonsai

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bonsai/internal/mpi"
	"bonsai/internal/obs"
)

func TestQuickstartFlow(t *testing.T) {
	parts := NewPlummer(2000, 1, 1, 1, 42)
	s, err := New(Config{Ranks: 2, Softening: 0.05, DT: 1e-3}, parts)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Step()
	if st.N != 2000 || st.Ranks != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.PP == 0 || st.Flops <= 0 || st.AppGflops <= 0 {
		t.Error("missing statistics")
	}
	if s.Time() <= 0 || s.StepCount() != 1 {
		t.Error("time not advancing")
	}
	got := s.Particles()
	if len(got) != 2000 {
		t.Fatal("particles lost")
	}
	acc, pot := s.Accelerations()
	if len(acc) != 2000 || len(pot) != 2000 {
		t.Fatal("accelerations missing")
	}
	kin, potE := s.Energy()
	if kin <= 0 || potE >= 0 {
		t.Errorf("energy K=%v W=%v", kin, potE)
	}
}

func TestPublicForcesMatchDirect(t *testing.T) {
	parts := NewPlummer(1500, 1, 1, 1, 7)
	s, err := New(Config{Ranks: 3, Softening: 0.05, Theta: 0.4}, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.ComputeForces()
	got, _ := s.Accelerations()
	// Particles() after ComputeForces have unchanged positions.
	want, _ := DirectForces(s.Particles(), 0.05)
	var sum2, ref2 float64
	for i := range got {
		dx := got[i].X - want[i].X
		dy := got[i].Y - want[i].Y
		dz := got[i].Z - want[i].Z
		sum2 += dx*dx + dy*dy + dz*dz
		ref2 += want[i].X*want[i].X + want[i].Y*want[i].Y + want[i].Z*want[i].Z
	}
	if rms := math.Sqrt(sum2 / ref2); rms > 2e-3 {
		t.Errorf("rms force error vs direct: %v", rms)
	}
}

func TestMilkyWayPublicAPI(t *testing.T) {
	model := MilkyWayModel()
	if model.HaloMass != 60 || model.DiskMass != 5 || model.BulgeMass != 0.46 {
		t.Fatalf("paper masses wrong: %+v", model)
	}
	const n = 20000
	parts := model.Realize(n, 1, 2)
	if len(parts) != n {
		t.Fatal("count")
	}
	nb, nd, nh := model.Counts(n)
	if nb+nd+nh != n {
		t.Fatal("component counts")
	}
	// Filters select disjoint covering subsets.
	total := 0
	for _, c := range []GalaxyComponent{Bulge, Disk, Halo} {
		f := ComponentFilter(model, n, c)
		cnt := 0
		for _, p := range parts {
			if f(p) {
				cnt++
			}
		}
		total += cnt
		if cnt == 0 {
			t.Errorf("component %v empty", c)
		}
	}
	if total != n {
		t.Errorf("filters cover %d of %d", total, n)
	}
	if Bulge.String() != "bulge" || Disk.String() != "disk" || Halo.String() != "halo" {
		t.Error("component names")
	}
}

func TestAnalysisPublicAPI(t *testing.T) {
	model := MilkyWayModel()
	const n = 30000
	parts := model.Realize(n, 3, 2)
	diskF := ComponentFilter(model, n, Disk)

	m := SurfaceDensity(parts, diskF, 15, 32)
	if m.N != 32 || m.Total() <= 0 {
		t.Fatal("density map empty")
	}
	var buf bytes.Buffer
	if err := m.RenderPGM(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "P2\n") {
		t.Fatal("not a PGM")
	}

	a2, _ := BarStrength(parts, diskF, 5)
	if a2 < 0 || a2 > 0.2 {
		t.Errorf("fresh axisymmetric disk A2 = %v", a2)
	}

	h := SolarNeighborhood(parts, diskF, Vec3{X: 8}, 1.0, 150, 20)
	if h.Stars == 0 {
		t.Fatal("no solar-neighbourhood stars")
	}
	if h.MeanRotation < 100 {
		t.Errorf("rotation %v too slow", h.MeanRotation)
	}
	if h.N != 20 {
		t.Error("bins")
	}
	sum := 0
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			sum += h.Count(i, j)
		}
	}
	if sum == 0 {
		t.Error("histogram empty")
	}

	prof := RadialProfile(parts, diskF, 20, 10)
	if len(prof) != 10 || prof[1] <= prof[8] {
		t.Errorf("disk profile not declining: %v", prof)
	}
	if z := DiskThickness(parts, diskF); z <= 0 || z > 2 {
		t.Errorf("thickness %v", z)
	}
	if s := VelocityDispersion(parts, diskF, 7, 9); s <= 0 || s > 200 {
		t.Errorf("dispersion %v", s)
	}
}

func TestSnapshotPublicAPI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.bin")
	parts := NewPlummer(300, 1, 1, 1, 9)
	if err := SaveSnapshot(path, 1.5, 10, parts); err != nil {
		t.Fatal(err)
	}
	tm, step, got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if tm != 1.5 || step != 10 || len(got) != 300 {
		t.Fatalf("loaded %v %v %d", tm, step, len(got))
	}
	for i := range parts {
		if got[i] != parts[i] {
			t.Fatalf("particle %d differs", i)
		}
	}

	// A header declaring 1<<62 particles over no records fails by name; the
	// count is not trusted to size anything.
	hostile := append([]byte("BONSAI2\n"), make([]byte, 32)...)
	hostile[39] = 0x40
	if err := os.WriteFile(path, hostile, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadSnapshot(path); err == nil {
		t.Fatal("a 40-byte file declaring 1<<62 particles loaded")
	}
}

func TestUnitsPublicAPI(t *testing.T) {
	if math.Abs(Gyr(FromGyr(6))-6) > 1e-12 {
		t.Error("time conversion")
	}
	// The paper's softening: 1 pc at 51.2e9 particles.
	if eps := SofteningForN(51_200_000_000); math.Abs(eps-0.001) > 1e-6 {
		t.Errorf("softening %v", eps)
	}
	if G < 43006 || G > 43008 {
		t.Errorf("G = %v", G)
	}
}

func TestEnergyConservationPublic(t *testing.T) {
	parts := NewPlummer(1500, 1, 1, 1, 11)
	s, err := New(Config{Ranks: 2, Softening: 0.05, DT: 2e-3, Theta: 0.3}, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	k0, p0 := s.Energy()
	s.Run(24)
	k1, p1 := s.Energy()
	drift := math.Abs((k1 + p1 - k0 - p0) / (k0 + p0))
	if drift > 3e-3 {
		t.Errorf("energy drift %v", drift)
	}
}

func TestBlockStepsPublicAPI(t *testing.T) {
	parts := NewPlummer(2000, 1, 0.1, 1, 9)
	s, err := New(Config{
		Ranks: 2, Softening: 0.01, DT: 4e-3, Theta: 0.4,
		BlockSteps: true, MaxRungs: 4, EtaDT: 0.1,
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	var substeps int
	for i := 0; i < 2; i++ {
		st := s.Step()
		substeps = st.Substeps
		if st.Substeps < 1 {
			t.Fatalf("step %d: no substeps reported: %+v", i, st)
		}
		if st.Rebuilds >= st.Substeps && st.Substeps > 1 {
			t.Errorf("step %d: no tree reuse (%d rebuilds / %d substeps)", i, st.Rebuilds, st.Substeps)
		}
		if st.ActiveFrac < 0 || st.ActiveFrac > 1 {
			t.Errorf("step %d: active fraction %v outside [0,1]", i, st.ActiveFrac)
		}
	}
	if substeps <= 1 {
		t.Error("rungs never spread on the concentrated model")
	}

	// Rungs survive the public snapshot round trip, so a restored block run
	// keeps its hierarchy.
	got := s.Particles()
	var spread bool
	for _, p := range got {
		if p.Rung > 0 {
			spread = true
		}
	}
	if !spread {
		t.Fatal("gathered particles carry no rungs")
	}
	path := filepath.Join(t.TempDir(), "block.snap")
	if err := SaveSnapshot(path, s.Time(), s.StepCount(), got); err != nil {
		t.Fatal(err)
	}
	_, _, loaded, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if loaded[i].Rung != got[i].Rung {
			t.Fatalf("particle %d: rung %d != %d after snapshot round trip", i, loaded[i].Rung, got[i].Rung)
		}
	}
	s2, err := New(Config{
		Ranks: 2, Softening: 0.01, DT: 4e-3, Theta: 0.4,
		BlockSteps: true, MaxRungs: 4, EtaDT: 0.1,
	}, loaded)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetClock(s.StepCount(), s.Time())
	s2.Step()

	// Garbage configs are rejected up front.
	if _, err := New(Config{DT: math.NaN()}, parts); err == nil {
		t.Error("NaN DT accepted")
	}
	if _, err := New(Config{BlockSteps: true, MaxRungs: 17}, parts); err == nil {
		t.Error("MaxRungs 17 accepted")
	}
}

// TestSimulationAndNodeShareEngineConfig sets every Config field in turn and
// checks that Simulation and NodeSimulation run the engine on the same
// effective Config for it, and that the field survives to the engine at all —
// so a field the defaults drop, or that one driver fills differently from the
// other, fails here.
func TestSimulationAndNodeShareEngineConfig(t *testing.T) {
	parts := NewPlummer(64, 1, 1, 1, 3)
	build := func(cfg Config) (inProcess, node Config) {
		t.Helper()
		s, err := New(cfg, parts)
		if err != nil {
			t.Fatal(err)
		}
		ranks := max(cfg.Ranks, 1)
		w := &World{inner: mpi.NewWorld(ranks)}
		n, err := NewNodeSimulation(cfg, w, 0, SliceForRank(parts, 0, ranks))
		if err != nil {
			t.Fatal(err)
		}
		return s.inner.Config(), n.inner.Config()
	}
	defaults, _ := build(Config{})

	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		t.Run(typ.Field(i).Name, func(t *testing.T) {
			var cfg Config
			switch f := reflect.ValueOf(&cfg).Elem().Field(i); f.Kind() {
			case reflect.Int:
				f.SetInt(3)
			case reflect.Float64:
				f.SetFloat(0.37)
			case reflect.Bool:
				f.SetBool(true)
			default:
				t.Fatalf("no test value for a %v field; extend the switch", f.Kind())
			}
			// BlockSteps is the switch for MaxRungs: either alone leaves the
			// engine on the shared step, so the two are set together.
			if cfg.BlockSteps || cfg.MaxRungs != 0 {
				cfg.BlockSteps, cfg.MaxRungs = true, 3
			}
			inProcess, node := build(cfg)
			if inProcess != node {
				t.Errorf("engine configs differ:\n Simulation     %+v\n NodeSimulation %+v", inProcess, node)
			}
			if inProcess == defaults {
				t.Error("setting the field left the engine config at its defaults")
			}
		})
	}
}

// The public StepStats is the record the JSONL stream carries: for a traced
// 4-rank run, the merged JSONL record of the second step's evaluation equals
// that step's StepStats in every field — counts exactly, times and rates to
// 1e-12.
func TestStepStatsIsTheStreamedRecord(t *testing.T) {
	s, err := New(Config{Ranks: 4, Softening: 0.05, DT: 1e-3, Tracing: true}, NewPlummer(4000, 1, 1, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	s.Step() // evaluations 0 (t=0 priming) and 1
	st := s.Step()
	var buf bytes.Buffer
	if err := s.WriteMetricsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadMetricsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Step != 2 {
		t.Fatalf("stream holds %d records, want evaluations 0..2", len(recs))
	}
	compareStats(t, "", reflect.ValueOf(recs[2]), reflect.ValueOf(st))
}

// compareStats compares two StepStats field by field, slices element by
// element: durations and floats to 1e-12 relative, everything else exactly.
func compareStats(t *testing.T, path string, got, want reflect.Value) {
	t.Helper()
	switch {
	case want.Kind() == reflect.Struct:
		for i := 0; i < want.NumField(); i++ {
			compareStats(t, path+"."+want.Type().Field(i).Name, got.Field(i), want.Field(i))
		}
	case want.Kind() == reflect.Slice:
		if got.Len() != want.Len() {
			t.Errorf("StepStats%s: stream %v, step %v", path, got, want)
			return
		}
		for i := 0; i < want.Len(); i++ {
			compareStats(t, fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i))
		}
	case want.Kind() == reflect.Float64 || want.Type() == reflect.TypeOf(time.Duration(0)):
		g, w := got.Convert(reflect.TypeOf(0.0)).Float(), want.Convert(reflect.TypeOf(0.0)).Float()
		if math.Abs(g-w) > 1e-12*math.Max(1, math.Abs(w)) {
			t.Errorf("StepStats%s: stream %v, step %v", path, got, want)
		}
	case !got.Equal(want):
		t.Errorf("StepStats%s: stream %v, step %v", path, got, want)
	}
}

// A NodeSimulation's Step returns its own rank's record: on a 2-rank
// unix-socket world each node names itself in Rank and the world in Ranks,
// it is its own slowest rank, the two records' particles add up to the run's,
// and on this shared-step run Step reads StepCount.
func TestNodeStepIsItsRanksRecord(t *testing.T) {
	const ranks, n = 2, 2000
	nodes := newUnixNodes(t, Config{Ranks: ranks, Softening: 0.05, DT: 1e-3}, NewPlummer(n, 1, 1, 1, 7))
	for range 2 {
		var recs [ranks]StepStats
		nodes.each(func(nd *NodeSimulation) { recs[nd.Rank()] = nd.Step() })
		total := 0
		for r, st := range recs {
			if st.Rank != r || st.Ranks != ranks || st.Straggler != r {
				t.Errorf("rank %d's record: Rank %d, Ranks %d, Straggler %d", r, st.Rank, st.Ranks, st.Straggler)
			}
			if st.MaxTimes != st.Times || st.Times.Total <= 0 {
				t.Errorf("rank %d's record: Times %+v, MaxTimes %+v", r, st.Times, st.MaxTimes)
			}
			if st.Step != nodes[r].StepCount() {
				t.Errorf("rank %d's record: Step %d after step %d", r, st.Step, nodes[r].StepCount())
			}
			total += st.N
		}
		if total != n {
			t.Errorf("the ranks' records hold %d particles, want %d", total, n)
		}
	}
}
