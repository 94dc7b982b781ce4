package bonsai

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bonsai/internal/mpi"
	"bonsai/internal/sim"
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
	if m.Bins() != 32 || m.Total() <= 0 {
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
	if h.Stars() == 0 {
		t.Fatal("no solar-neighbourhood stars")
	}
	if h.MeanRotation() < 100 {
		t.Errorf("rotation %v too slow", h.MeanRotation())
	}
	if h.Bins() != 20 {
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

func TestStaticHaloPublicAPI(t *testing.T) {
	model := MilkyWayModel()
	const n = 3000
	disk := model.RealizeDiskOnly(n, 5, 2)
	if len(disk) != n {
		t.Fatal("count")
	}
	var mass float64
	for _, p := range disk {
		mass += p.Mass
	}
	if math.Abs(mass-model.DiskMass) > 1e-9*model.DiskMass {
		t.Errorf("disk-only mass %v", mass)
	}

	field := model.StaticHalo()
	// Attractive, radial, finite at centre.
	a, pot := field(Vec3{X: 10})
	if a.X >= 0 || a.Y != 0 || a.Z != 0 || pot >= 0 {
		t.Errorf("field at x=10: %+v pot %v", a, pot)
	}
	if a0, p0 := field(Vec3{}); math.IsNaN(p0) || a0 != (Vec3{}) {
		t.Errorf("central field %v %v", a0, p0)
	}

	// The live disk orbits stably in the static halo.
	s, err := New(Config{
		Ranks: 2, Theta: 0.4, Softening: 0.05,
		DT:        SuggestedDT(40000),
		GravConst: G,
		External:  field,
	}, disk)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	rc := RotationCurve(s.Particles(), nil, 16, 4)
	if rc[2] < 120 {
		t.Errorf("disk stopped rotating in static halo: vc ~ %v", rc[2])
	}
	kin, potE := s.Energy()
	if kin <= 0 || potE >= 0 {
		t.Errorf("energy bookkeeping with external field: K=%v W=%v", kin, potE)
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
	if s.Substep() != 0 {
		t.Errorf("not at a top-of-step barrier after Step: %d", s.Substep())
	}

	// Rungs survive the public snapshot round trip, so a restored block run
	// can keep its hierarchy via RestoreSubstep.
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
	if err := s2.RestoreSubstep(0); err != nil {
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

// TestSimulationAndNodeShareEngineConfig sets every public Config field in
// turn and checks that Simulation and NodeSimulation hand the engine the same
// sim.Config for it, and that the field reaches the engine at all — so a field
// wired into one driver and not the other, or into neither, fails here.
func TestSimulationAndNodeShareEngineConfig(t *testing.T) {
	parts := NewPlummer(64, 1, 1, 1, 3)
	build := func(cfg Config) (inProcess, node sim.Config) {
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
	// same compares two engine configs; the recorder and the field callback
	// are per-instance, so those two compare by presence.
	same := func(a, b sim.Config) bool {
		if (a.Obs == nil) != (b.Obs == nil) || (a.External == nil) != (b.External == nil) {
			return false
		}
		a.Obs, b.Obs, a.External, b.External = nil, nil, nil, nil
		return reflect.DeepEqual(a, b)
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
			case reflect.Func:
				f.Set(reflect.ValueOf(ExternalField(func(Vec3) (Vec3, float64) { return Vec3{}, 0 })))
			default:
				t.Fatalf("no test value for a %v field; extend the switch", f.Kind())
			}
			inProcess, node := build(cfg)
			if !same(inProcess, node) {
				t.Errorf("engine configs differ:\n Simulation     %+v\n NodeSimulation %+v", inProcess, node)
			}
			if same(inProcess, defaults) {
				t.Error("setting the field left the engine config at its defaults")
			}
		})
	}
}
