package main

import (
	"fmt"

	"bonsai/internal/device"
	"bonsai/internal/grav"
	"bonsai/internal/ic"
	"bonsai/internal/octree"
	"bonsai/internal/perfmodel"
	"bonsai/internal/vec"
)

// ---------------------------------------------------------------------------
// Table I

func printTable1() {
	section("TABLE I — Hardware used for the parallel simulations")
	rows := []perfmodel.Machine{perfmodel.PizDaint(), perfmodel.Titan()}
	fmt.Printf("%-24s %-18s %-18s\n", "Setup", rows[0].Name, rows[1].Name)
	line := func(k, a, b string) { fmt.Printf("%-24s %-18s %-18s\n", k, a, b) }
	line("GPU model", rows[0].GPU.Name, rows[1].GPU.Name)
	line("GPU peak SP (Gflops)", fmt.Sprintf("%.0f", rows[0].GPU.PeakGflops()), fmt.Sprintf("%.0f", rows[1].GPU.PeakGflops()))
	line("Total nodes", fmt.Sprint(rows[0].Nodes), fmt.Sprint(rows[1].Nodes))
	line("GPUs used (paper)", "5200", "18600")
	line("CPU model", rows[0].CPUName, rows[1].CPUName)
	line("Network", rows[0].Network, rows[1].Network)
	fmt.Println("\n(per the paper: CUDA 5.5, GCC 4.8.2, Cray MPICH 6.2 on both systems)")
}

// ---------------------------------------------------------------------------
// §VI.A operation counts

func printFlops() {
	section("§VI.A — Operation counting conventions")
	fmt.Printf("particle-particle (4 sub, 3 mul, 6 fma, 1 rsqrt@4): %d flops\n", grav.FlopsPP)
	fmt.Printf("particle-cell with quadrupole (4 sub, 6 add, 17 mul, 17 fma, 1 rsqrt@4): %d flops\n", grav.FlopsPC)
	fmt.Printf("legacy p-p convention of refs [28]-[32]: %d flops\n", grav.FlopsPPLegacy)
	fmt.Printf("Ishiyama et al. 2012 convention (incl. cutoff polynomial): %d flops\n", grav.FlopsPPIshiyama)
	st := grav.Stats{PP: 1716, PC: 6287}
	fmt.Printf("\nexample (Table II, 1024 GPUs, per particle): %.0f flops (23/65 counting), %.0f (38-flop legacy)\n",
		st.Flops(), st.FlopsLegacy())
}

// ---------------------------------------------------------------------------
// Fig. 1

func printFig1() {
	section("FIG. 1 — Force kernel performance (GFlops, modeled device vs paper)")
	parts := ic.DefaultMilkyWay().Realize(60_000, 1, 0)
	pos := make([]vec.V3, len(parts))
	mass := make([]float64, len(parts))
	for i, p := range parts {
		pos[i] = p.Pos
		mass[i] = p.Mass
	}
	tr, _ := octree.BuildFrom(pos, mass, 16, 0)
	groups := octree.GroupsOf(tr.Pos, 64)
	acc := make([]vec.V3, len(pos))
	pot := make([]float64, len(pos))

	type bar struct {
		label  string
		spec   device.Spec
		kernel device.Kernel
		direct bool
		paper  float64
	}
	bars := []bar{
		{"tree  C2075/original", device.C2075(), device.TreeKernelFermi(), false, 460},
		{"tree  K20X/original ", device.K20X(), device.TreeKernelFermi(), false, 829},
		{"tree  K20X/tuned    ", device.K20X(), device.TreeKernelKeplerTuned(), false, 1746},
		{"direct C2075        ", device.C2075(), device.DirectKernel(), true, 638},
		{"direct K20X         ", device.K20X(), device.DirectKernel(), true, 1768},
	}
	fmt.Printf("%-22s %10s %10s %8s   %s\n", "kernel/device", "model", "paper", "Δ%", "")
	for _, b := range bars {
		var got float64
		if b.direct {
			run, err := device.ExecuteDirect(b.spec, b.kernel, pos[:4096], mass[:4096], 1e-4, acc[:4096], pot[:4096])
			if err != nil {
				fmt.Println(err)
				continue
			}
			got = run.ModelGflops
		} else {
			for i := range acc {
				acc[i], pot[i] = vec.V3{}, 0
			}
			run, err := device.ExecuteTreeWalk(b.spec, b.kernel, tr, groups, tr.Pos, 0.4, 1e-4, acc, pot)
			if err != nil {
				fmt.Println(err)
				continue
			}
			got = run.ModelGflops
		}
		fmt.Printf("%-22s %10.0f %10.0f %+7.1f%%   %s\n",
			b.label, got, b.paper, 100*(got-b.paper)/b.paper, hbar(got, 1900, 40))
	}
	fmt.Println("\nkey relations (paper §III.A): tuned ≈ 2× original on K20X; tuned ≈ 4× C2075;")
	fmt.Println("the original kernel is shared-memory-bound on Kepler, compute-bound on Fermi.")
}

func hbar(v, maxv float64, width int) string {
	n := int(v / maxv * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

// ---------------------------------------------------------------------------
// §VI.C / §VI.D

func printTimeToSolution() {
	section("§VI.C — Time-to-solution (model)")
	steps, secs := perfmodel.TimeToSolution(perfmodel.Titan(), 18600, 13e6, 8, 1.1)
	fmt.Printf("242G-particle Milky Way, 18600 GPUs, 8 Gyr at 0.075 Myr/step:\n")
	fmt.Printf("  %d steps x %.2f s = %.1f days   (paper: ~1 week at <=5.5 s/step)\n",
		steps, secs/float64(steps), secs/86400)
	steps2, secs2 := perfmodel.TimeToSolution(perfmodel.Titan(), 8192, 13e6, 8, 1.1)
	fmt.Printf("106G-particle model, 8192 GPUs:\n")
	fmt.Printf("  %d steps x %.2f s = %.1f days   (paper: ~5.1 s/step, just over six days)\n",
		steps2, secs2/float64(steps2), secs2/86400)
}

func printPeak() {
	section("§VI.D — Peak performance (model)")
	pr := perfmodel.Predict(perfmodel.Titan(), 18600, 13e6)
	gpuFrac, appFrac := perfmodel.PeakFractions(perfmodel.Titan(), 18600, 13e6)
	fmt.Printf("18600 K20X theoretical peak: %.1f Pflops\n",
		perfmodel.Titan().GPU.PeakGflops()*18600/1e6)
	fmt.Printf("modeled GPU rate:         %6.2f Pflops (%.0f%% of peak)   paper: 33.49 (46%%)\n",
		pr.GPUTflops/1e3, gpuFrac*100)
	fmt.Printf("modeled application rate: %6.2f Pflops (%.0f%% of peak)   paper: 24.77 (34%%)\n",
		pr.AppTflops/1e3, appFrac*100)
	fmt.Printf("per GPU: %.2f Tflops kernel, %.2f Tflops application  (paper: 1.8 / 1.33)\n",
		pr.GPUTflops/18600, pr.AppTflops/18600)
}
