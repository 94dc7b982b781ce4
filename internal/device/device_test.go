package device

import (
	"math"
	"testing"

	"bonsai/internal/grav"
	"bonsai/internal/ic"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

func TestPeakGflops(t *testing.T) {
	// Table I / §II: K20X peak SP is 3.95 Tflops; 18688 of them ≈ 73.2 Pflops
	// (§VI.D quotes 73.2 for 18600).
	k20x := K20X()
	if p := k20x.PeakGflops(); math.Abs(p-3935) > 10 {
		t.Errorf("K20X peak = %v GFlops, want ~3935", p)
	}
	if p := C2075().PeakGflops(); math.Abs(p-1030) > 5 {
		t.Errorf("C2075 peak = %v GFlops, want ~1030", p)
	}
	agg := k20x.PeakGflops() * 18600 / 1e6 // Pflops
	if math.Abs(agg-73.2) > 0.5 {
		t.Errorf("18600 K20X = %v Pflops, want ~73.2", agg)
	}
}

// fig1Workload builds the Milky Way sample the Fig. 1 kernels were
// calibrated on: θ=0.4, warp-padded 64-particle groups.
func fig1Workload(n int) (*octree.Tree, []octree.Group) {
	parts := ic.DefaultMilkyWay().Realize(n, 1, 0)
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i, p := range parts {
		pos[i] = p.Pos
		mass[i] = p.Mass
	}
	tr, _ := octree.BuildFrom(pos, mass, 16, 0)
	return tr, octree.GroupsOf(tr.Pos, 64)
}

func emulateTree(t *testing.T, s Spec, k Kernel, tr *octree.Tree, groups []octree.Group) float64 {
	t.Helper()
	n := tr.NumParticles()
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	run, err := ExecuteTreeWalk(s, k, tr, groups, tr.Pos, 0.4, 1e-4, acc, pot)
	if err != nil {
		t.Fatal(err)
	}
	return run.ModelGflops
}

func TestFig1WorkloadCalibrationAndRelations(t *testing.T) {
	// The five bars of Fig. 1, reproduced by emulating the actual kernels
	// over a Milky Way workload. The tree-kernel parameters were solved on a
	// 40k-particle sample; a same-size sample must land within 3% of the
	// paper's bars, and the paper's headline relations must hold: the tuned
	// kernel is ~2x the original on the K20X and ~4x the C2075 value, while
	// a naive port gains only ~2x from 4x-faster hardware (§III.A).
	tr, groups := fig1Workload(40_000)
	fermi := emulateTree(t, C2075(), TreeKernelFermi(), tr, groups)
	orig := emulateTree(t, K20X(), TreeKernelFermi(), tr, groups)
	tuned := emulateTree(t, K20X(), TreeKernelKeplerTuned(), tr, groups)

	for _, c := range []struct {
		name string
		got  float64
		want float64
	}{
		{"tree C2075/original", fermi, 460},
		{"tree K20X/original", orig, 829},
		{"tree K20X/tuned", tuned, 1746},
	} {
		if math.Abs(c.got-c.want)/c.want > 0.03 {
			t.Errorf("%s: %.0f GFlops, want %v ± 3%%", c.name, c.got, c.want)
		}
	}
	if r := tuned / orig; r < 1.8 || r > 2.4 {
		t.Errorf("tuned/original on K20X = %v, want ~2", r)
	}
	if r := tuned / fermi; r < 3.4 || r > 4.4 {
		t.Errorf("tuned K20X / original C2075 = %v, want ~4", r)
	}
	if r := orig / fermi; r < 1.5 || r > 2.3 {
		t.Errorf("original K20X / C2075 = %v, want ~1.8 (the 'missing performance')", r)
	}
}

func TestFig1DirectAnalytic(t *testing.T) {
	// The direct kernel streams full warps of pure p-p work, so the
	// analytic rate is the bar value.
	for _, c := range []struct {
		spec Spec
		want float64
	}{
		{C2075(), 638},
		{K20X(), 1768},
	} {
		got := c.spec.KernelGflops(DirectKernel(), 0)
		if math.Abs(got-c.want)/c.want > 0.03 {
			t.Errorf("direct on %s: %v GFlops, want %v", c.spec.Name, got, c.want)
		}
	}
}

func TestOriginalKernelIsSharedBoundOnKeplerOnly(t *testing.T) {
	k := TreeKernelFermi()
	fermi, kepler := C2075(), K20X()
	// Compute vs shared pipeline cycles for a p-p warp.
	fermiCompute := WarpSize * k.ComputeOpsPP / fermi.EffIssueLanes
	fermiShared := WarpSize * k.SharedOpsPP / fermi.SharedLanes
	if fermiShared >= fermiCompute {
		t.Error("original kernel should be compute-bound on Fermi")
	}
	keplerCompute := WarpSize * k.ComputeOpsPP / kepler.EffIssueLanes
	keplerShared := WarpSize * k.SharedOpsPP / kepler.SharedLanes
	if keplerShared <= keplerCompute {
		t.Error("original kernel should be shared-memory-bound on Kepler")
	}
	// The tuned kernel must be compute-bound on Kepler.
	kt := TreeKernelKeplerTuned()
	if WarpSize*kt.SharedOpsPP/kepler.SharedLanes >= WarpSize*kt.ComputeOpsPP/kepler.EffIssueLanes {
		t.Error("tuned kernel should be compute-bound on Kepler")
	}
}

func TestShflRequirement(t *testing.T) {
	if C2075().Supports(TreeKernelKeplerTuned()) {
		t.Error("C2075 must not support the __shfl kernel")
	}
	if !K20X().Supports(TreeKernelKeplerTuned()) {
		t.Error("K20X must support the __shfl kernel")
	}
	if C2075().KernelGflops(TreeKernelKeplerTuned(), 0) != 0 {
		t.Error("unsupported kernel should report zero rate")
	}
}

func TestOccupancyLimits(t *testing.T) {
	k20x := K20X()
	for _, k := range []Kernel{TreeKernelFermi(), TreeKernelKeplerTuned(), DirectKernel()} {
		occ := k20x.Occupancy(k)
		if occ <= 0 || occ > 1 {
			t.Errorf("%s occupancy %v out of range", k.Name, occ)
		}
	}
	// A register-hungry kernel must reduce occupancy.
	fat := TreeKernelKeplerTuned()
	fat.RegsPerThread = 255
	if k20x.Occupancy(fat) >= k20x.Occupancy(TreeKernelKeplerTuned()) {
		t.Error("255-register kernel should have lower occupancy")
	}
	// A shared-memory-hungry kernel must reduce occupancy.
	heavy := TreeKernelFermi()
	heavy.SharedBytesPerBlock = 48 << 10
	if k20x.Occupancy(heavy) >= k20x.Occupancy(TreeKernelFermi()) {
		t.Error("48KB-shared kernel should have lower occupancy")
	}
	// Low occupancy throttles the modeled rate.
	if k20x.KernelGflops(fat, 0) >= k20x.KernelGflops(TreeKernelKeplerTuned(), 0) {
		t.Error("low-occupancy kernel should be slower")
	}
}

func TestPCStreamIsFasterPerInteraction(t *testing.T) {
	// p-c interactions carry more flops per issue slot, so a cell-heavy
	// stream achieves higher GFlops on a compute-bound kernel.
	k20x := K20X()
	k := TreeKernelKeplerTuned()
	if k20x.KernelGflops(k, 0.8) <= k20x.KernelGflops(k, 0) {
		t.Error("p-c heavy stream should have higher flop rate")
	}
}

func TestExecuteTreeWalkMatchesPlainWalk(t *testing.T) {
	parts := ic.Plummer(4000, 1, 1, 1, 5)
	pos := make([]vec.V3, len(parts))
	mass := make([]float64, len(parts))
	for i, p := range parts {
		pos[i] = p.Pos
		mass[i] = p.Mass
	}
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	// Fixed-size warp-multiple groups, as the GPU kernel's NCRIT padding
	// produces: full lanes everywhere except the final group.
	groups := octree.GroupsOf(tr.Pos, 64)
	n := tr.NumParticles()

	wantAcc := make([]vec.V3, n)
	wantPot := make([]float64, n)
	tr.Walk(groups, tr.Pos, 0.4, 1e-4, wantAcc, wantPot, 1, nil)

	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	run, err := ExecuteTreeWalk(K20X(), TreeKernelKeplerTuned(), tr, groups, tr.Pos, 0.4, 1e-4, acc, pot)
	if err != nil {
		t.Fatal(err)
	}
	// A warp's call sees 32 of the group's 64 targets: the same float64 sums
	// on the scalar tier, its own float32 frame on the SIMD tier.
	tol := grav.KernelTol()
	if grav.KernelISA() == "scalar" {
		tol = 0
	}
	for i := range acc {
		if acc[i].Sub(wantAcc[i]).Norm() > tol*wantAcc[i].Norm() || math.Abs(pot[i]-wantPot[i]) > tol*math.Abs(wantPot[i]) {
			t.Fatalf("emulated kernel diverges from plain walk at particle %d: %v %v, want %v %v", i, acc[i], pot[i], wantAcc[i], wantPot[i])
		}
	}
	if run.Cycles <= 0 || run.ModelGflops <= 0 {
		t.Fatalf("run accounting missing: %+v", run)
	}
	// The achieved rate must not exceed the analytic full-warp rate and must
	// sit close below it.
	pcFrac := float64(run.Stats.PC) / float64(run.Stats.PC+run.Stats.PP)
	analytic := K20X().KernelGflops(TreeKernelKeplerTuned(), pcFrac)
	if run.ModelGflops > analytic*1.01 {
		t.Errorf("emulated %v exceeds analytic %v", run.ModelGflops, analytic)
	}
	if run.ModelGflops < analytic*0.9 {
		t.Errorf("emulated %v below analytic %v", run.ModelGflops, analytic)
	}
}

func TestRaggedGroupsWasteLanes(t *testing.T) {
	// Tree-cut groups have ragged sizes (sibling cells packed up to NCRIT
	// fill ~40 of 64 lanes); the emulator must charge full warp cycles for
	// idle lanes, lowering the achieved rate versus padded fixed-size groups
	// — the reason the GPU kernel pads to NCRIT.
	parts := ic.Plummer(4000, 1, 1, 1, 8)
	pos := make([]vec.V3, len(parts))
	mass := make([]float64, len(parts))
	for i, p := range parts {
		pos[i] = p.Pos
		mass[i] = p.Mass
	}
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	n := tr.NumParticles()
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	padded, err := ExecuteTreeWalk(K20X(), TreeKernelKeplerTuned(), tr,
		octree.GroupsOf(tr.Pos, 64), tr.Pos, 0.4, 1e-4, acc, pot)
	if err != nil {
		t.Fatal(err)
	}
	for i := range acc {
		acc[i], pot[i] = vec.V3{}, 0
	}
	ragged, err := ExecuteTreeWalk(K20X(), TreeKernelKeplerTuned(), tr,
		tr.MakeGroups(64), tr.Pos, 0.4, 1e-4, acc, pot)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("model GFlops: padded %.0f, tree groups %.0f", padded.ModelGflops, ragged.ModelGflops)
	if ragged.ModelGflops >= padded.ModelGflops {
		t.Errorf("ragged groups (%v GFlops) should be slower than padded (%v)",
			ragged.ModelGflops, padded.ModelGflops)
	}
}

func TestExecuteDirectMatchesAndRates(t *testing.T) {
	parts := ic.Plummer(1024, 1, 1, 1, 6)
	pos := make([]vec.V3, len(parts))
	mass := make([]float64, len(parts))
	for i, p := range parts {
		pos[i] = p.Pos
		mass[i] = p.Mass
	}
	acc := make([]vec.V3, len(pos))
	pot := make([]float64, len(pos))
	run, err := ExecuteDirect(K20X(), DirectKernel(), pos, mass, 1e-4, acc, pot)
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats.PP != uint64(len(pos))*uint64(len(pos)-1) {
		t.Errorf("stats %+v", run.Stats)
	}
	// Full warps everywhere: the modeled rate should be within a few percent
	// of the analytic direct-kernel rate.
	analytic := K20X().KernelGflops(DirectKernel(), 0)
	if math.Abs(run.ModelGflops-analytic)/analytic > 0.05 {
		t.Errorf("direct emulated %v vs analytic %v", run.ModelGflops, analytic)
	}
	if _, err := ExecuteDirect(C2075(), TreeKernelKeplerTuned(), pos, mass, 1e-4, acc, pot); err == nil {
		t.Error("expected shfl error on C2075")
	}
}

func TestTreeWalkOnFermiSlowerThanTuned(t *testing.T) {
	parts := ic.Plummer(3000, 1, 1, 1, 7)
	pos := make([]vec.V3, len(parts))
	mass := make([]float64, len(parts))
	for i, p := range parts {
		pos[i] = p.Pos
		mass[i] = p.Mass
	}
	tr, _ := octree.BuildFrom(pos, mass, 16, 2)
	groups := tr.MakeGroups(64)
	n := tr.NumParticles()
	acc := make([]vec.V3, n)
	pot := make([]float64, n)

	orig, err := ExecuteTreeWalk(K20X(), TreeKernelFermi(), tr, groups, tr.Pos, 0.4, 1e-4, acc, pot)
	if err != nil {
		t.Fatal(err)
	}
	for i := range acc {
		acc[i], pot[i] = vec.V3{}, 0
	}
	tuned, err := ExecuteTreeWalk(K20X(), TreeKernelKeplerTuned(), tr, groups, tr.Pos, 0.4, 1e-4, acc, pot)
	if err != nil {
		t.Fatal(err)
	}
	if r := tuned.ModelGflops / orig.ModelGflops; r < 1.7 || r > 2.5 {
		t.Errorf("tuned/original emulated ratio %v, want ~2", r)
	}
}
