// Milky Way: a scaled-down version of the paper's production run (§IV).
//
// The paper evolved a 51-billion-particle Milky Way for 6 Gyr on 4096 GPUs
// of Piz Daint, watching the stellar bar and spiral arms form. This example
// evolves the same model (NFW halo + exponential disk + Hernquist bulge,
// equal-mass particles) at a laptop-friendly N, tracking the paper's
// diagnostics: the m=2 bar amplitude, the disk's radial velocity dispersion
// (numerical heating, §II), and face-on surface-density maps written as PGM
// images.
//
//	go run ./examples/milkyway -n 30000 -steps 100
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"bonsai"
)

func main() {
	var (
		n      = flag.Int("n", 30_000, "particle count (paper: 51.2e9)")
		steps  = flag.Int("steps", 100, "leapfrog steps")
		ranks  = flag.Int("ranks", 2, "simulated ranks")
		outdir = flag.String("outdir", "milkyway_out", "directory for density maps")
		seed   = flag.Int64("seed", 42, "IC seed")
	)
	flag.Parse()
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		panic(err)
	}

	model := bonsai.MilkyWayModel()
	nb, nd, nh := model.Counts(*n)
	fmt.Printf("Milky Way model: %d particles (bulge %d / disk %d / halo %d, equal masses)\n",
		*n, nb, nd, nh)

	parts := model.Realize(*n, *seed, 0)
	eps := bonsai.SofteningForN(*n)
	dt := bonsai.SuggestedDT(*n) // softening criterion capped by the orbital time
	fmt.Printf("softening %.4f kpc (paper: 1 pc at 51e9), dt %.2f Myr, theta 0.4\n",
		eps, bonsai.Gyr(dt)*1e3)

	s, err := bonsai.New(bonsai.Config{
		Ranks: *ranks, Theta: 0.4, Softening: eps, DT: dt,
		GravConst: bonsai.G, // galactic units
	}, parts)
	if err != nil {
		panic(err)
	}

	diskOnly := bonsai.ComponentFilter(model, *n, bonsai.Disk)
	writeMap := func(tag string) {
		m := bonsai.SurfaceDensity(s.Particles(), diskOnly, 20, 256)
		path := filepath.Join(*outdir, fmt.Sprintf("disk_%s.pgm", tag))
		f, err := os.Create(path)
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if err := m.RenderPGM(f); err != nil {
			panic(err)
		}
		fmt.Printf("  density map -> %s\n", path)
	}

	fmt.Printf("\n%8s %9s %9s %12s %12s %12s\n",
		"step", "t [Myr]", "A2(R<5)", "bar phase", "sigmaR(7-9)", "disk z_rms")
	report := func() {
		cur := s.Particles()
		a2, phase := bonsai.BarStrength(cur, diskOnly, 5)
		sig := bonsai.VelocityDispersion(cur, diskOnly, 7, 9)
		z := bonsai.DiskThickness(cur, diskOnly)
		fmt.Printf("%8d %9.1f %9.4f %12.3f %12.1f %12.3f\n",
			s.StepCount(), bonsai.Gyr(s.Time())*1e3, a2, phase, sig, z)
	}

	writeMap("t0")
	report()
	chunk := max(1, *steps/10)
	for done := 0; done < *steps; done += chunk {
		todo := min(chunk, *steps-done)
		s.Run(todo)
		report()
	}
	writeMap("final")

	// The paper's Fig. 3 bottom-left: (vR, vphi) structure near the Sun.
	h := bonsai.SolarNeighborhood(s.Particles(), diskOnly, bonsai.Vec3{X: 8}, 2.0, 120, 20)
	fmt.Printf("\nsolar neighbourhood (2 kpc around R=8): %d stars, mean rotation %.0f km/s\n",
		h.Stars, h.MeanRotation)

	k, p := s.Energy()
	fmt.Printf("energy E=%.4e (K=%.3e, W=%.3e), simulated %.1f Myr\n",
		k+p, k, p, bonsai.Gyr(s.Time())*1e3)
	fmt.Println("\nFor bar formation run longer and larger, e.g. -n 200000 -steps 3000")
	fmt.Println("(the paper's bar forms after ~3 Gyr of evolution).")
}
