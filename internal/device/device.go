// Package device is the GPU substrate substituted for the paper's CUDA
// hardware (DESIGN.md, substitution table). It models a NVIDIA Fermi C2075
// and a Kepler K20X at the level that explains Figure 1:
//
//   - an occupancy calculator (register / shared-memory / warp-slot limits),
//   - a warp-level throughput model in which each interaction costs compute
//     issue-slots and shared-memory lanes, with per-architecture effective
//     issue width (Kepler's 192 cores per SMX cannot be filled by its four
//     dual-issue schedulers on dependence-limited kernels, the well-known
//     ~70% issue ceiling), and
//   - warp-lockstep *execution* of the actual force kernels with cycle
//     accounting, so modeled GFlops come from the same interaction lists the
//     science code produces.
//
// The kernel parameters below are calibrated once against the five bars of
// the paper's Fig. 1 and are documented where they are defined; the model
// then *predicts* the figure's structure: the Fermi-tuned ("original")
// tree-walk kernel is compute-bound on the C2075 but shared-memory-bound on
// the K20X, and replacing shared-memory staging with __shfl register
// exchange (a 90% shared-traffic reduction) restores compute-bound operation
// — the factor-of-two recovery reported in §III.A.
package device

import (
	"fmt"
	"math"

	"bonsai/internal/grav"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// WarpSize is the SIMT width of both modeled architectures.
const WarpSize = 32

// Spec describes one GPU model.
type Spec struct {
	Name       string
	SMs        int     // streaming multiprocessors
	CoresPerSM int     // single-precision cores per SM
	ClockGHz   float64 // shader clock

	// EffIssueLanes is the number of core lanes the schedulers can actually
	// feed per cycle on dependence-limited kernels: all 32 on Fermi (dual
	// warp schedulers over 32 cores), ~0.72·192 on Kepler (4 schedulers × 2
	// issue slots cannot sustain 6 warps of work without high ILP).
	EffIssueLanes float64
	// SharedLanes is the shared-memory 32-bit bank throughput per cycle.
	SharedLanes float64

	RegistersPerSM int // 32-bit registers
	SharedMemPerSM int // bytes
	MaxWarpsPerSM  int
	HasShfl        bool
}

// C2075 returns the Fermi-generation Tesla C2075 specification.
func C2075() Spec {
	return Spec{
		Name:           "C2075",
		SMs:            14,
		CoresPerSM:     32,
		ClockGHz:       1.147,
		EffIssueLanes:  32,
		SharedLanes:    32,
		RegistersPerSM: 32768,
		SharedMemPerSM: 48 << 10,
		MaxWarpsPerSM:  48,
		HasShfl:        false,
	}
}

// K20X returns the Kepler-generation Tesla K20X specification (the GPU of
// both Piz Daint and Titan, Table I).
func K20X() Spec {
	return Spec{
		Name:           "K20X",
		SMs:            14,
		CoresPerSM:     192,
		ClockGHz:       0.732,
		EffIssueLanes:  139, // 192 × ~0.72 issue efficiency
		SharedLanes:    32,
		RegistersPerSM: 65536,
		SharedMemPerSM: 48 << 10,
		MaxWarpsPerSM:  64,
		HasShfl:        true,
	}
}

// PeakGflops is the theoretical single-precision peak (2 flops/core/clock).
func (s Spec) PeakGflops() float64 {
	return float64(s.SMs*s.CoresPerSM) * 2 * s.ClockGHz
}

// Kernel describes a force kernel variant by its per-interaction costs.
//
// ComputeOps counts arithmetic issue-slots per thread per interaction
// (the p-p force math is 14 instructions; the rest is traversal/loop
// bookkeeping amortized per interaction). SharedOps counts 32-bit
// shared-memory accesses per thread per interaction.
type Kernel struct {
	Name string

	ComputeOpsPP float64
	SharedOpsPP  float64
	ComputeOpsPC float64
	SharedOpsPC  float64

	RegsPerThread       int
	SharedBytesPerBlock int
	ThreadsPerBlock     int
	NeedsShfl           bool
}

// The p-p force math is 14 instructions (4 sub, 3 mul, 6 fma, 1 rsqrt) for
// 23 flops; the p-c math is 45 instructions (4 sub, 6 add, 17 mul, 17 fma,
// 1 rsqrt) for 65 flops.
const (
	mathOpsPP = 14
	mathOpsPC = 45
)

// TreeKernelFermi is the original Bonsai tree-walk kernel (Bédorf et al.
// 2012): interaction lists are staged through shared memory (~10 shared
// accesses per p-p interaction, 2.5× that for the larger multipole payload
// of a p-c interaction); walk bookkeeping adds ~18 issue slots on top of the
// force math. The two parameters are solved so that emulating the Milky Way
// workload (θ=0.4, warp-padded 64-particle groups) reproduces Fig. 1's
// 460 GFlops (C2075) and 829 GFlops (K20X "original") bars exactly.
func TreeKernelFermi() Kernel {
	return Kernel{
		Name:         "tree/original",
		ComputeOpsPP: mathOpsPP + 17.8,
		SharedOpsPP:  9.82,
		ComputeOpsPC: mathOpsPC + 17.8,
		SharedOpsPC:  2.5 * 9.82,

		RegsPerThread:       40,
		SharedBytesPerBlock: 12 << 10,
		ThreadsPerBlock:     256,
	}
}

// TreeKernelKeplerTuned is the K20X-tuned kernel of §III.A: __shfl
// intrinsics replace 90% of the shared-memory traffic with register
// exchange, and the leaner bookkeeping costs ~6 extra issue slots.
// Calibrated against Fig. 1's 1746 GFlops bar on the same workload.
func TreeKernelKeplerTuned() Kernel {
	return Kernel{
		Name:         "tree/tuned",
		ComputeOpsPP: mathOpsPP + 6.0,
		SharedOpsPP:  0.98,
		ComputeOpsPC: mathOpsPC + 6.0,
		SharedOpsPC:  2.5 * 0.98,

		RegsPerThread:       63,
		SharedBytesPerBlock: 1 << 10,
		ThreadsPerBlock:     256,
		NeedsShfl:           true,
	}
}

// DirectKernel is the NVIDIA SDK 5.5 direct N-body sample: a shared-memory
// tile of sources streamed against register-resident targets, ~4.5
// bookkeeping slots per interaction. Calibrated against Fig. 1's 638
// (C2075) and 1768 (K20X) GFlops bars.
func DirectKernel() Kernel {
	return Kernel{
		Name:         "direct/sdk",
		ComputeOpsPP: mathOpsPP + 4.5,
		SharedOpsPP:  1,
		ComputeOpsPC: mathOpsPC + 4.5, // unused: direct has no cells
		SharedOpsPC:  1,

		RegsPerThread:       30,
		SharedBytesPerBlock: 4 << 10,
		ThreadsPerBlock:     256,
	}
}

// Supports reports whether the device can run the kernel.
func (s Spec) Supports(k Kernel) bool { return !k.NeedsShfl || s.HasShfl }

// Occupancy returns the fraction of the device's warp slots the kernel can
// keep resident, limited by registers, shared memory, and warp slots.
func (s Spec) Occupancy(k Kernel) float64 {
	warpsPerBlock := (k.ThreadsPerBlock + WarpSize - 1) / WarpSize
	blocksByRegs := s.RegistersPerSM / (k.RegsPerThread * k.ThreadsPerBlock)
	blocksByShared := s.SharedMemPerSM / max(1, k.SharedBytesPerBlock)
	blocksByWarps := s.MaxWarpsPerSM / warpsPerBlock
	blocks := min(blocksByRegs, min(blocksByShared, blocksByWarps))
	if blocks <= 0 {
		return 0
	}
	warps := blocks * warpsPerBlock
	if warps > s.MaxWarpsPerSM {
		warps = s.MaxWarpsPerSM
	}
	return float64(warps) / float64(s.MaxWarpsPerSM)
}

// latencyFactor converts occupancy into a throughput de-rating: the modeled
// kernels need roughly a quarter of the warp slots resident to hide
// pipeline and memory latency.
func (s Spec) latencyFactor(k Kernel) float64 {
	const needed = 0.25
	occ := s.Occupancy(k)
	if occ >= needed {
		return 1
	}
	return occ / needed
}

// warpCycles returns the model's SM-cycles for one warp-wide batch of
// interactions of each type: the compute pipeline and the shared-memory
// pipeline overlap, so the cost is their maximum.
func (s Spec) warpCycles(k Kernel, pp bool) float64 {
	var cOps, sOps float64
	if pp {
		cOps, sOps = k.ComputeOpsPP, k.SharedOpsPP
	} else {
		cOps, sOps = k.ComputeOpsPC, k.SharedOpsPC
	}
	compute := WarpSize * cOps / s.EffIssueLanes
	shared := WarpSize * sOps / s.SharedLanes
	return math.Max(compute, shared) / s.latencyFactor(k)
}

// KernelGflops returns the sustained rate for a stream of interactions with
// the given particle-cell fraction (0 = pure p-p), assuming full warps.
func (s Spec) KernelGflops(k Kernel, pcFraction float64) float64 {
	if !s.Supports(k) {
		return 0
	}
	cyc := (1-pcFraction)*s.warpCycles(k, true) + pcFraction*s.warpCycles(k, false)
	flops := (1-pcFraction)*WarpSize*grav.FlopsPP + pcFraction*WarpSize*grav.FlopsPC
	perSM := flops / cyc * s.ClockGHz // Gflops per SM
	return perSM * float64(s.SMs)
}

// ---------------------------------------------------------------------------
// Warp-lockstep execution

// Run reports an emulated kernel execution.
type Run struct {
	Device string
	Kernel string

	Stats  grav.Stats // interactions actually evaluated
	Cycles float64    // modeled SM-cycles, including partial-warp waste

	// ModelSeconds is the modeled device execution time (cycles spread over
	// the device's SMs at its clock); ModelGflops the resulting rate under
	// the paper's flop-counting convention.
	ModelSeconds float64
	ModelGflops  float64
}

// ExecuteTreeWalk runs the tree-walk force kernel for all groups in
// warp-lockstep on the modeled device: each group's interaction lists are
// gathered once into SoA scratch (octree.Walker.Gather, the traversal and
// gather of the CPU walk itself) and evaluated WarpSize targets at a time
// through the same batched kernels the CPU walk uses (idle lanes in partial
// warps burn cycles without contributing flops, exactly as on hardware), so
// the emulated forces are those of octree.Tree.Walk (bit for bit on the
// scalar kernel tier, within grav.KernelTol on the float32 tier, where each
// warp's call has its own coordinate frame). Forces are
// accumulated into acc/pot; the returned Run carries the cycle model.
func ExecuteTreeWalk(s Spec, k Kernel, t *octree.Tree, groups []octree.Group,
	tpos []vec.V3, theta, eps2 float64, acc []vec.V3, pot []float64) (Run, error) {

	if !s.Supports(k) {
		return Run{}, fmt.Errorf("device %s does not support kernel %s (needs __shfl)", s.Name, k.Name)
	}
	run := Run{Device: s.Name, Kernel: k.Name}
	var walker octree.Walker
	pc, pp := &walker.PC, &walker.PP
	var tg grav.Targets
	cells := t.WalkView(theta)

	for gi := range groups {
		g := &groups[gi]
		walker.Gather(t, cells, g.Box)
		gLo, gHi := g.Start, g.Start+g.N
		tg.Gather(tpos[gLo:gHi])

		// Warp-lockstep evaluation: lanes = particles of the group.
		warps := (int(g.N) + WarpSize - 1) / WarpSize
		for w := 0; w < warps; w++ {
			lo := w * WarpSize
			hi := lo + WarpSize
			if hi > int(g.N) {
				hi = int(g.N)
			}
			// Every lane walks the same lists in lockstep.
			grav.PCBatch(tg.X[lo:hi], tg.Y[lo:hi], tg.Z[lo:hi], pc, eps2,
				tg.AX[lo:hi], tg.AY[lo:hi], tg.AZ[lo:hi], tg.Pot[lo:hi])
			grav.PPBatch(tg.X[lo:hi], tg.Y[lo:hi], tg.Z[lo:hi], pp, eps2,
				tg.AX[lo:hi], tg.AY[lo:hi], tg.AZ[lo:hi], tg.Pot[lo:hi])
			// The warp burns full-width cycles regardless of idle lanes.
			run.Cycles += float64(pc.Len()) * s.warpCycles(k, false)
			run.Cycles += float64(pp.Len()) * s.warpCycles(k, true)
		}
		tg.Scatter(acc[gLo:gHi], pot[gLo:gHi])
		run.Stats.PC += uint64(pc.Len()) * uint64(g.N)
		run.Stats.PP += uint64(pp.Len()) * uint64(g.N)
	}
	run.finish(s)
	return run, nil
}

// ExecuteDirect runs the direct N-body kernel in warp-lockstep: all sources
// against all targets, tiled as on the device.
func ExecuteDirect(s Spec, k Kernel, pos []vec.V3, mass []float64, eps2 float64,
	acc []vec.V3, pot []float64) (Run, error) {

	if !s.Supports(k) {
		return Run{}, fmt.Errorf("device %s does not support kernel %s", s.Name, k.Name)
	}
	run := Run{Device: s.Name, Kernel: k.Name}
	n := len(pos)
	for lo := 0; lo < n; lo += WarpSize {
		hi := lo + WarpSize
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			var f grav.Force
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				f.Add(grav.PP(pos[i], pos[j], mass[j], eps2))
			}
			acc[i] = acc[i].Add(f.Acc)
			pot[i] += f.Pot
		}
		run.Cycles += float64(n) * s.warpCycles(k, true)
		run.Stats.PP += uint64(hi-lo) * uint64(n-1)
	}
	run.finish(s)
	return run, nil
}

// finish converts accumulated cycles into modeled time and rate. Warps are
// spread over all SMs (the group count is always far larger than the SM
// count for realistic inputs).
func (r *Run) finish(s Spec) {
	cyclesPerSM := r.Cycles / float64(s.SMs)
	r.ModelSeconds = cyclesPerSM / (s.ClockGHz * 1e9)
	if r.ModelSeconds > 0 {
		r.ModelGflops = r.Stats.Flops() / r.ModelSeconds / 1e9
	}
}
