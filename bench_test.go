// Benchmarks regenerating the paper's tables and figures at repository
// scale. Each benchmark corresponds to an entry of DESIGN.md's
// per-experiment index; `cmd/benchfigs` prints the full paper-vs-reproduction
// comparison using the same machinery.
//
// Naming: BenchmarkFig1_* (force-kernel bars), BenchmarkFig4_* (weak
// scaling), BenchmarkTable2_* (phase breakdown), BenchmarkStrong_* (strong
// scaling), BenchmarkAblation_* (design-choice sweeps from DESIGN.md §5).
package bonsai

import (
	"math/rand"
	"testing"

	"bonsai/internal/device"
	"bonsai/internal/grav"
	"bonsai/internal/ic"
	"bonsai/internal/octree"
	"bonsai/internal/pm"
	"bonsai/internal/vec"
)

// mwSample builds a Morton-ordered octree over an n-particle Milky Way
// sample, shared across kernel benchmarks.
func mwSample(n int) (*octree.Tree, []octree.Group) {
	parts := ic.MilkyWay(ic.DefaultMilkyWay(), n, 1, 0)
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i, p := range parts {
		pos[i] = p.Pos
		mass[i] = p.Mass
	}
	tr, _ := octree.BuildFrom(pos, mass, 16, 0)
	return tr, octree.GroupsOf(tr.Pos, 64)
}

// benchFig1Tree emulates one Fig. 1 tree-kernel bar.
func benchFig1Tree(b *testing.B, spec device.Spec, kernel device.Kernel, paperGflops float64) {
	tr, groups := mwSample(60_000)
	n := tr.NumParticles()
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	var modelGflops float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range acc {
			acc[j], pot[j] = vec.V3{}, 0
		}
		run, err := device.ExecuteTreeWalk(spec, kernel, tr, groups, tr.Pos, 0.4, 1e-4, acc, pot)
		if err != nil {
			b.Fatal(err)
		}
		modelGflops = run.ModelGflops
	}
	b.ReportMetric(modelGflops, "modelGflops")
	b.ReportMetric(paperGflops, "paperGflops")
}

func BenchmarkFig1_TreeKernel_C2075_Original(b *testing.B) {
	benchFig1Tree(b, device.C2075(), device.TreeKernelFermi(), 460)
}

func BenchmarkFig1_TreeKernel_K20X_Original(b *testing.B) {
	benchFig1Tree(b, device.K20X(), device.TreeKernelFermi(), 829)
}

func BenchmarkFig1_TreeKernel_K20X_Tuned(b *testing.B) {
	benchFig1Tree(b, device.K20X(), device.TreeKernelKeplerTuned(), 1746)
}

func benchFig1Direct(b *testing.B, spec device.Spec, paperGflops float64) {
	parts := ic.MilkyWay(ic.DefaultMilkyWay(), 4096, 2, 0)
	pos := make([]vec.V3, len(parts))
	mass := make([]float64, len(parts))
	for i, p := range parts {
		pos[i] = p.Pos
		mass[i] = p.Mass
	}
	acc := make([]vec.V3, len(pos))
	pot := make([]float64, len(pos))
	var modelGflops float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range acc {
			acc[j], pot[j] = vec.V3{}, 0
		}
		run, err := device.ExecuteDirect(spec, device.DirectKernel(), pos, mass, 1e-4, acc, pot)
		if err != nil {
			b.Fatal(err)
		}
		modelGflops = run.ModelGflops
	}
	b.ReportMetric(modelGflops, "modelGflops")
	b.ReportMetric(paperGflops, "paperGflops")
}

func BenchmarkFig1_Direct_C2075(b *testing.B) { benchFig1Direct(b, device.C2075(), 638) }
func BenchmarkFig1_Direct_K20X(b *testing.B)  { benchFig1Direct(b, device.K20X(), 1768) }

// ---------------------------------------------------------------------------
// Fig. 4: weak scaling (fixed particles per rank).

func benchWeak(b *testing.B, ranks int) {
	const perRank = 8000
	parts := NewMilkyWay(perRank*ranks, 3)
	s, err := New(Config{Ranks: ranks, Theta: 0.4, Softening: SofteningForN(len(parts)), GravConst: G}, parts)
	if err != nil {
		b.Fatal(err)
	}
	s.ComputeForces() // settle domains
	var st StepStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = s.ComputeForces()
	}
	b.ReportMetric(st.WalkGflops, "walkGflops")
	b.ReportMetric(st.AppGflops, "appGflops")
	b.ReportMetric(st.PCPerParticle, "pc/particle")
	b.ReportMetric(st.PPPerParticle, "pp/particle")
}

func BenchmarkFig4_Weak_R1(b *testing.B) { benchWeak(b, 1) }
func BenchmarkFig4_Weak_R2(b *testing.B) { benchWeak(b, 2) }
func BenchmarkFig4_Weak_R4(b *testing.B) { benchWeak(b, 4) }
func BenchmarkFig4_Weak_R8(b *testing.B) { benchWeak(b, 8) }

// ---------------------------------------------------------------------------
// Table II: phase breakdown and strong scaling (fixed total size).

func benchTable2(b *testing.B, ranks int) {
	const total = 48000
	parts := NewMilkyWay(total, 4)
	s, err := New(Config{Ranks: ranks, Theta: 0.4, Softening: SofteningForN(total), GravConst: G}, parts)
	if err != nil {
		b.Fatal(err)
	}
	s.ComputeForces()
	var st StepStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = s.ComputeForces()
	}
	ms := func(d interface{ Seconds() float64 }) float64 { return d.Seconds() * 1e3 }
	b.ReportMetric(ms(st.Times.SortBuild), "sortbuild_ms")
	b.ReportMetric(ms(st.Times.Domain), "domain_ms")
	b.ReportMetric(ms(st.Times.TreeProps), "props_ms")
	b.ReportMetric(ms(st.Times.GravLocal), "gravLocal_ms")
	b.ReportMetric(ms(st.Times.GravLET), "gravLET_ms")
	b.ReportMetric(ms(st.Times.NonHiddenComm), "comm_ms")
	b.ReportMetric(ms(st.MaxTimes.Total), "total_ms")
	b.ReportMetric(float64(st.BytesSent), "bytes")
}

func BenchmarkTable2_Strong_R1(b *testing.B) { benchTable2(b, 1) }
func BenchmarkTable2_Strong_R2(b *testing.B) { benchTable2(b, 2) }
func BenchmarkTable2_Strong_R4(b *testing.B) { benchTable2(b, 4) }
func BenchmarkTable2_Strong_R8(b *testing.B) { benchTable2(b, 8) }

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5).

// #1: opening angle θ — cost claimed to grow as θ⁻³ (§IV).
func benchTheta(b *testing.B, theta float64) {
	tr, groups := mwSample(60_000)
	n := tr.NumParticles()
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	var flops float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range acc {
			acc[j], pot[j] = vec.V3{}, 0
		}
		var st grav.Stats
		tr.Walk(groups, tr.Pos, theta, 1e-4, acc, pot, 0, &st)
		flops = st.Flops()
	}
	b.ReportMetric(flops/1e9, "Gflop/iter")
}

func BenchmarkAblation_Theta020(b *testing.B) { benchTheta(b, 0.2) }
func BenchmarkAblation_Theta030(b *testing.B) { benchTheta(b, 0.3) }
func BenchmarkAblation_Theta040(b *testing.B) { benchTheta(b, 0.4) }
func BenchmarkAblation_Theta055(b *testing.B) { benchTheta(b, 0.55) }
func BenchmarkAblation_Theta070(b *testing.B) { benchTheta(b, 0.7) }

// #2: NLEAF — leaf size trades build cost against walk cost.
func benchNLeaf(b *testing.B, nleaf int) {
	parts := ic.MilkyWay(ic.DefaultMilkyWay(), 60_000, 1, 0)
	pos := make([]vec.V3, len(parts))
	mass := make([]float64, len(parts))
	for i, p := range parts {
		pos[i] = p.Pos
		mass[i] = p.Mass
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, _ := octree.BuildFrom(pos, mass, nleaf, 0)
		groups := tr.MakeGroups(64)
		acc := make([]vec.V3, len(pos))
		pot := make([]float64, len(pos))
		tr.Walk(groups, tr.Pos, 0.4, 1e-4, acc, pot, 0, nil)
	}
}

func BenchmarkAblation_NLeaf8(b *testing.B)  { benchNLeaf(b, 8) }
func BenchmarkAblation_NLeaf16(b *testing.B) { benchNLeaf(b, 16) }
func BenchmarkAblation_NLeaf32(b *testing.B) { benchNLeaf(b, 32) }
func BenchmarkAblation_NLeaf64(b *testing.B) { benchNLeaf(b, 64) }

// #3: group size NCRIT — interaction-list sharing vs extra p-p work.
func benchNGroup(b *testing.B, ngroup int) {
	tr, _ := mwSample(60_000)
	groups := tr.MakeGroups(ngroup)
	n := tr.NumParticles()
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range acc {
			acc[j], pot[j] = vec.V3{}, 0
		}
		tr.Walk(groups, tr.Pos, 0.4, 1e-4, acc, pot, 0, nil)
	}
}

func BenchmarkAblation_NGroup16(b *testing.B)  { benchNGroup(b, 16) }
func BenchmarkAblation_NGroup64(b *testing.B)  { benchNGroup(b, 64) }
func BenchmarkAblation_NGroup256(b *testing.B) { benchNGroup(b, 256) }

// #4: boundary-tree depth — LET traffic vs boundary-only coverage.
func benchBoundaryDepth(b *testing.B, depth int) {
	const total = 24000
	parts := NewMilkyWay(total, 5)
	s, err := New(Config{
		Ranks: 4, Theta: 0.4, Softening: SofteningForN(total), BoundaryDepth: depth, GravConst: G,
	}, parts)
	if err != nil {
		b.Fatal(err)
	}
	s.ComputeForces()
	var st StepStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = s.ComputeForces()
	}
	b.ReportMetric(float64(st.BoundaryUsed), "boundaryUsed")
	b.ReportMetric(float64(st.LETsSent), "letsSent")
	b.ReportMetric(float64(st.BytesSent), "bytes")
}

func BenchmarkAblation_BoundaryDepth2(b *testing.B) { benchBoundaryDepth(b, 2) }
func BenchmarkAblation_BoundaryDepth4(b *testing.B) { benchBoundaryDepth(b, 4) }
func BenchmarkAblation_BoundaryDepth6(b *testing.B) { benchBoundaryDepth(b, 6) }

// Ablation #6 (serial vs two-stage parallel sampling) lives next to its
// implementation: see BenchmarkSampling* in internal/domain.

// ---------------------------------------------------------------------------
// §III.B.3 overlap: the pipelined gravity phase (receiver goroutine +
// LET-builder pool + interleaved walks) against the strict
// local-walk-then-LETs baseline. nonhidden_ms is the communication time the
// pipeline failed to hide behind compute; overlap_% is the fraction of
// received LETs walked while the local walk was still running.

func benchOverlap(b *testing.B, ranks int, serial bool) {
	const perRank = 3000
	parts := NewMilkyWay(perRank*ranks, 5)
	s, err := New(Config{
		Ranks: ranks, WorkersPerRank: 2, Theta: 0.4,
		Softening: SofteningForN(len(parts)), GravConst: G,
		SerialLET: serial,
	}, parts)
	if err != nil {
		b.Fatal(err)
	}
	s.ComputeForces() // settle domains
	var st StepStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = s.ComputeForces()
	}
	ms := func(d interface{ Seconds() float64 }) float64 { return d.Seconds() * 1e3 }
	b.ReportMetric(ms(st.Times.NonHiddenComm), "nonhidden_ms")
	b.ReportMetric(st.OverlapFrac*100, "overlap_%")
	b.ReportMetric(ms(st.RecvIdle), "recvIdle_ms")
	b.ReportMetric(ms(st.MaxTimes.Total), "total_ms")
}

func BenchmarkOverlap_Serial_R8(b *testing.B)     { benchOverlap(b, 8, true) }
func BenchmarkOverlap_Pipelined_R8(b *testing.B)  { benchOverlap(b, 8, false) }
func BenchmarkOverlap_Serial_R16(b *testing.B)    { benchOverlap(b, 16, true) }
func BenchmarkOverlap_Pipelined_R16(b *testing.B) { benchOverlap(b, 16, false) }
func BenchmarkOverlap_Serial_R32(b *testing.B)    { benchOverlap(b, 32, true) }
func BenchmarkOverlap_Pipelined_R32(b *testing.B) { benchOverlap(b, 32, false) }

// ---------------------------------------------------------------------------
// Force-kernel microbenchmarks: the batched SoA kernels against the scalar
// per-pair path, one warp-sized target group (64) against interaction lists
// of the given length — the regime the tree-walk actually runs in. The
// ns/inter metric is the per-interaction cost the walk pays; Gflop/s uses
// the §VI.A accounting constants (grav.FlopsPP/FlopsPC), so scalar and SIMD
// rates are directly comparable.
//
// _Batch_ pins the always-compiled scalar batch reference (PPBatchScalar/
// PCBatchScalar) to keep the historical series comparable across machines;
// _SIMD_ goes through the dispatched entry points (AVX2+FMA where the CPU
// supports it, otherwise the same scalar code — check the kernel_isa note)
// and, since the float32 kernels, includes narrowing the list once per call.

const kernelBenchTargets = 64

// reportKernelRate converts a finished kernel benchmark into per-interaction
// latency and an effective Gflop/s under the paper's flop conventions.
func reportKernelRate(b *testing.B, listLen int, flopsPer float64) {
	inters := float64(b.N) * float64(listLen*kernelBenchTargets)
	secs := b.Elapsed().Seconds()
	b.ReportMetric(secs*1e9/inters, "ns/inter")
	if secs > 0 {
		b.ReportMetric(inters*flopsPer/secs/1e9, "Gflop/s")
	}
}

func kernelBenchSetup(listLen int) ([]vec.V3, *grav.Targets, []vec.V3, []float64, []grav.Multipole) {
	rng := rand.New(rand.NewSource(42))
	tpos := make([]vec.V3, kernelBenchTargets)
	for i := range tpos {
		tpos[i] = vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
	}
	var tg grav.Targets
	tg.Gather(tpos)
	srcPos := make([]vec.V3, listLen)
	srcM := make([]float64, listLen)
	cells := make([]grav.Multipole, listLen)
	for k := 0; k < listLen; k++ {
		srcPos[k] = vec.V3{X: 5 + rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		srcM[k] = 0.5 + rng.Float64()
		cells[k] = grav.Multipole{
			COM:  srcPos[k],
			M:    srcM[k],
			Quad: vec.Outer(srcM[k], vec.V3{X: 0.3, Y: 0.2, Z: 0.1}),
		}
	}
	return tpos, &tg, srcPos, srcM, cells
}

func benchKernelPPScalar(b *testing.B, listLen int) {
	tpos, _, srcPos, srcM, _ := kernelBenchSetup(listLen)
	acc := make([]vec.V3, len(tpos))
	pot := make([]float64, len(tpos))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range tpos {
			f := grav.AccumulatePP(p, srcPos, srcM, 1e-4, nil)
			acc[j] = acc[j].Add(f.Acc)
			pot[j] += f.Pot
		}
	}
	reportKernelRate(b, listLen, grav.FlopsPP)
}

type ppBatchFn func(tx, ty, tz []float64, src *grav.PPSoA, eps2 float64, ax, ay, az, pot []float64)

func benchKernelPPBatch(b *testing.B, listLen int, batch ppBatchFn) {
	_, tg, srcPos, srcM, _ := kernelBenchSetup(listLen)
	var src grav.PPSoA
	for k := range srcPos {
		src.Append(srcPos[k], srcM[k])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch(tg.X, tg.Y, tg.Z, &src, 1e-4, tg.AX, tg.AY, tg.AZ, tg.Pot)
	}
	reportKernelRate(b, listLen, grav.FlopsPP)
}

func benchKernelPCScalar(b *testing.B, listLen int) {
	tpos, _, _, _, cells := kernelBenchSetup(listLen)
	acc := make([]vec.V3, len(tpos))
	pot := make([]float64, len(tpos))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range tpos {
			f := grav.AccumulatePC(p, cells, 1e-4, nil)
			acc[j] = acc[j].Add(f.Acc)
			pot[j] += f.Pot
		}
	}
	reportKernelRate(b, listLen, grav.FlopsPC)
}

type pcBatchFn func(tx, ty, tz []float64, src *grav.PCSoA, eps2 float64, ax, ay, az, pot []float64)

func benchKernelPCBatch(b *testing.B, listLen int, batch pcBatchFn) {
	_, tg, _, _, cells := kernelBenchSetup(listLen)
	var src grav.PCSoA
	for k := range cells {
		src.Append(cells[k])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch(tg.X, tg.Y, tg.Z, &src, 1e-4, tg.AX, tg.AY, tg.AZ, tg.Pot)
	}
	reportKernelRate(b, listLen, grav.FlopsPC)
}

func BenchmarkKernels_PP_Scalar_L64(b *testing.B)   { benchKernelPPScalar(b, 64) }
func BenchmarkKernels_PP_Batch_L64(b *testing.B)    { benchKernelPPBatch(b, 64, grav.PPBatchScalar) }
func BenchmarkKernels_PP_SIMD_L64(b *testing.B)     { benchKernelPPBatch(b, 64, grav.PPBatch) }
func BenchmarkKernels_PP_Scalar_L512(b *testing.B)  { benchKernelPPScalar(b, 512) }
func BenchmarkKernels_PP_Batch_L512(b *testing.B)   { benchKernelPPBatch(b, 512, grav.PPBatchScalar) }
func BenchmarkKernels_PP_SIMD_L512(b *testing.B)    { benchKernelPPBatch(b, 512, grav.PPBatch) }
func BenchmarkKernels_PP_Scalar_L4096(b *testing.B) { benchKernelPPScalar(b, 4096) }
func BenchmarkKernels_PP_Batch_L4096(b *testing.B)  { benchKernelPPBatch(b, 4096, grav.PPBatchScalar) }
func BenchmarkKernels_PP_SIMD_L4096(b *testing.B)   { benchKernelPPBatch(b, 4096, grav.PPBatch) }
func BenchmarkKernels_PC_Scalar_L64(b *testing.B)   { benchKernelPCScalar(b, 64) }
func BenchmarkKernels_PC_Batch_L64(b *testing.B)    { benchKernelPCBatch(b, 64, grav.PCBatchScalar) }
func BenchmarkKernels_PC_SIMD_L64(b *testing.B)     { benchKernelPCBatch(b, 64, grav.PCBatch) }
func BenchmarkKernels_PC_Scalar_L512(b *testing.B)  { benchKernelPCScalar(b, 512) }
func BenchmarkKernels_PC_Batch_L512(b *testing.B)   { benchKernelPCBatch(b, 512, grav.PCBatchScalar) }
func BenchmarkKernels_PC_SIMD_L512(b *testing.B)    { benchKernelPCBatch(b, 512, grav.PCBatch) }
func BenchmarkKernels_PC_Scalar_L4096(b *testing.B) { benchKernelPCScalar(b, 4096) }
func BenchmarkKernels_PC_Batch_L4096(b *testing.B)  { benchKernelPCBatch(b, 4096, grav.PCBatchScalar) }
func BenchmarkKernels_PC_SIMD_L4096(b *testing.B)   { benchKernelPCBatch(b, 4096, grav.PCBatch) }

// ---------------------------------------------------------------------------
// §I baseline: the TreePM mesh alternative the paper argues against for
// open-boundary galaxy simulations. Same isolated Milky Way sample, the
// tree-walk vs a periodic PM solve in a 2x-padded box.

func BenchmarkBaselinePM_Mesh64(b *testing.B) {
	parts := ic.MilkyWay(ic.DefaultMilkyWay(), 60_000, 1, 0)
	pos := make([]vec.V3, len(parts))
	mass := make([]float64, len(parts))
	for i, p := range parts {
		pos[i] = p.Pos
		mass[i] = p.Mass
	}
	mesh := pm.NewMesh(64, vec.V3{X: -300, Y: -300, Z: -300}, 600, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mesh.Forces(pos, mass)
	}
}

func BenchmarkBaselinePM_TreeWalk(b *testing.B) {
	tr, groups := mwSample(60_000)
	n := tr.NumParticles()
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range acc {
			acc[j], pot[j] = vec.V3{}, 0
		}
		tr.Walk(groups, tr.Pos, 0.4, 1e-4, acc, pot, 0, nil)
	}
}

// ---------------------------------------------------------------------------
// Block timesteps: wall-clock per unit of simulated time on a centrally
// concentrated model, block-timestep hierarchy vs a global dt resolving the
// same finest timestep everywhere. The two variants advance the same total
// simulated time per iteration, so their ns/op are directly comparable; each
// also reports its relative energy drift, which must stay matched for the
// speedup to count.

func benchBlockSteps(b *testing.B, block bool) {
	const (
		n       = 10_000
		topDT   = 4e-3
		rungs   = 4
		simTime = 8 * topDT
	)
	parts := fromBody(ic.Plummer(n, 1.0, 0.1, 1.0, 9))
	cfg := Config{
		Ranks: 2, WorkersPerRank: 2, Theta: 0.4, Softening: 0.01, GravConst: 1,
	}
	if block {
		cfg.DT = topDT
		cfg.BlockSteps = true
		cfg.MaxRungs = rungs
		cfg.EtaDT = 0.055
	} else {
		// Global dt matching the hierarchy's finest rung.
		cfg.DT = topDT / float64(int(1)<<rungs)
	}
	steps := int(simTime/cfg.DT + 0.5)

	// Initial energy, measured once outside the timed loop.
	ref, err := New(cfg, parts)
	if err != nil {
		b.Fatal(err)
	}
	ref.ComputeForces()
	k0, p0 := ref.Energy()
	e0 := k0 + p0

	var dE, activeFrac float64
	var substeps int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(cfg, parts)
		if err != nil {
			b.Fatal(err)
		}
		substeps, activeFrac = 0, 0
		for j := 0; j < steps; j++ {
			st := s.Step()
			substeps += st.Substeps
			activeFrac += st.ActiveFrac
		}
		k, p := s.Energy()
		dE = (k + p - e0) / e0
		if dE < 0 {
			dE = -dE
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/simTime, "ns/simtime")
	b.ReportMetric(dE*1e6, "dE/E_ppm")
	if block {
		b.ReportMetric(float64(substeps)/float64(steps), "substeps/step")
		b.ReportMetric(activeFrac/float64(steps)*100, "active%")
	}
}

func BenchmarkBlockSteps_Global(b *testing.B) { benchBlockSteps(b, false) }
func BenchmarkBlockSteps_Rungs(b *testing.B)  { benchBlockSteps(b, true) }

// ---------------------------------------------------------------------------
// Exchange scaling past 64 ranks: one force evaluation of the SerialLET
// schedule on clustered ICs (well-separated blobs, one per rank), where most
// rank pairs are served by boundary trees alone. boundary/step counts
// boundary-tree pushes (p·(p−1)) and exchBytes/step the evaluation's total
// exchange traffic. The rows keep the _AllPairs names they carried beside the
// deleted coarse-global-tree rows (EXPERIMENTS.md, "Verdict: coarse global
// tree deleted") so the series continues.

// exchangeBlobs builds one Gaussian blob per rank on a widely spaced grid.
func exchangeBlobs(ranks, perBlob int, seed int64) []Particle {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]Particle, 0, ranks*perBlob)
	id := int64(0)
	for bl := 0; bl < ranks; bl++ {
		c := Vec3{
			X: float64(bl%8) * 40,
			Y: float64((bl/8)%8) * 40,
			Z: float64(bl/64) * 40,
		}
		for i := 0; i < perBlob; i++ {
			parts = append(parts, Particle{
				Pos: Vec3{
					X: c.X + rng.NormFloat64(),
					Y: c.Y + rng.NormFloat64(),
					Z: c.Z + rng.NormFloat64(),
				},
				Mass: 1.0 / float64(ranks*perBlob),
				ID:   id,
			})
			id++
		}
	}
	return parts
}

func benchExchangeScale(b *testing.B, ranks int) {
	const perRank = 500
	parts := exchangeBlobs(ranks, perRank, 6)
	s, err := New(Config{
		Ranks: ranks, WorkersPerRank: 1, Theta: 0.4, Softening: 0.05,
		SerialLET: true,
	}, parts)
	if err != nil {
		b.Fatal(err)
	}
	s.ComputeForces() // settle domains
	var st StepStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = s.ComputeForces()
	}
	b.ReportMetric(float64(st.BoundarySent), "boundary/step")
	b.ReportMetric(float64(st.BytesSent), "exchBytes/step")
}

func BenchmarkExchangeScale_P64_AllPairs(b *testing.B)  { benchExchangeScale(b, 64) }
func BenchmarkExchangeScale_P256_AllPairs(b *testing.B) { benchExchangeScale(b, 256) }
