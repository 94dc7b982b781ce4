package main

import (
	"fmt"
	"os"
	"path/filepath"

	"bonsai"
)

// runFig3 reproduces the structure of Fig. 3 at reduced scale: it evolves a
// Milky Way model, writing face-on surface-density maps (the top panels) and
// a solar-neighbourhood velocity histogram (bottom-left panel), and tracking
// the bar amplitude A2 over time.
//
// At laptop particle counts the dominant dynamical effect is exactly the one
// the paper's §II warns about: two-body scattering by over-massive particles
// heats the disk far faster than in reality. The section therefore also
// *measures* that claim: the disk heating rate must scale like 1/N.
func runFig3(outdir string, n, steps int) {
	section(fmt.Sprintf("FIG. 3 — Milky Way structure run (N=%d, %d steps; paper: 51e9, 6 Gyr)", n, steps))

	model := bonsai.MilkyWayModel()
	parts := model.Realize(n, 42, 0)
	eps := bonsai.SofteningForN(n)
	dt := bonsai.SuggestedDT(n)
	s, err := bonsai.New(bonsai.Config{
		Ranks: 2, Theta: 0.4, Softening: eps, DT: dt,
		GravConst: bonsai.G,
	}, parts)
	if err != nil {
		panic(err)
	}
	diskF := bonsai.ComponentFilter(model, n, bonsai.Disk)

	nb, nd, nh := model.Counts(n)
	fmt.Printf("bulge %d / disk %d / halo %d equal-mass particles, softening %.4f kpc, dt %.3f Myr\n",
		nb, nd, nh, eps, bonsai.Gyr(dt)*1e3)
	fmt.Printf("%8s %10s %10s %10s %12s %10s\n", "step", "t [Myr]", "A2(R<5)", "bar phase", "sigmaR(7-9)", "z_rms")

	writeMap := func(tag string) {
		cur := s.Particles()
		m := bonsai.SurfaceDensity(cur, diskF, 20, 256)
		path := filepath.Join(outdir, fmt.Sprintf("fig3_density_%s.pgm", tag))
		f, err := os.Create(path)
		if err != nil {
			fmt.Println("  (map skipped:", err, ")")
			return
		}
		defer f.Close()
		if err := m.RenderPGM(f); err != nil {
			fmt.Println("  (map error:", err, ")")
			return
		}
		fmt.Printf("  wrote %s\n", path)
	}

	report := func() {
		cur := s.Particles()
		a2, phase := bonsai.BarStrength(cur, diskF, 5)
		sig := bonsai.VelocityDispersion(cur, diskF, 7, 9)
		z := bonsai.DiskThickness(cur, diskF)
		fmt.Printf("%8d %10.1f %10.4f %10.3f %12.1f %10.3f\n",
			s.StepCount(), bonsai.Gyr(s.Time())*1e3, a2, phase, sig, z)
	}

	writeMap("initial")
	report()
	quarter := steps / 4
	if quarter < 1 {
		quarter = 1
	}
	for done := 0; done < steps; {
		todo := quarter
		if done+todo > steps {
			todo = steps - done
		}
		s.Run(todo)
		done += todo
		report()
	}
	writeMap("final")
	k, p := s.Energy()
	fmt.Printf("energy E=%.4e (K=%.3e, W=%.3e), simulated %.1f Myr\n",
		k+p, k, p, bonsai.Gyr(s.Time())*1e3)

	// Velocity-space structure near the Sun (bottom-left panel). At reduced
	// N the 500-pc sphere of the paper holds no stars; widen to 2 kpc.
	cur := s.Particles()
	h := bonsai.SolarNeighborhood(cur, diskF, bonsai.Vec3{X: 8}, 2.0, 120, 24)
	fmt.Printf("\nsolar neighbourhood (2 kpc around R=8 kpc): %d stars, mean rotation %.1f km/s\n",
		h.Stars, h.MeanRotation)
	if h.Stars > 0 {
		fmt.Println("(vR, vphi−⟨vphi⟩) histogram, ±120 km/s:")
		for j := h.N - 1; j >= 0; j-- {
			row := make([]byte, h.N)
			for i := 0; i < h.N; i++ {
				row[i] = density(h.Count(i, j))
			}
			fmt.Println(string(row))
		}
	}
	fmt.Println("\npaper: 68,000 stars within 500 pc at 51e9 particles; moving-group")
	fmt.Println("substructure appears only after the bar forms (>3 Gyr of evolution).")

	heatingStudy(n, dt)
}

// heatingStudy reproduces the paper's §II resolution argument (after Fujii
// et al. 2011 and Sellwood 2013): the numerical disk-heating rate scales
// inversely with particle count, which is why star-by-star resolution
// matters. We evolve the same Milky Way at N and 4N for the same physical
// time and compare the growth of the disk's vertical action proxy z_rms².
func heatingStudy(n int, dt float64) {
	fmt.Println()
	fmt.Println("--- §II heating vs resolution (the case for large N) ---")
	fmt.Println("(radial velocity dispersion of mid-disk stars, the Fujii/Sellwood")
	fmt.Println(" diagnostic: two-body heating grows σR² at a rate ∝ 1/N)")
	type result struct {
		n        int
		ds2dt    float64 // (km/s)²/Gyr
		sig0, s1 float64
	}
	var results []result
	const steps = 30
	for _, nn := range []int{n, 4 * n} {
		model := bonsai.MilkyWayModel()
		parts := model.Realize(nn, 7, 0)
		s, err := bonsai.New(bonsai.Config{
			Ranks: 2, Theta: 0.4,
			Softening: bonsai.SofteningForN(nn),
			DT:        dt,
			GravConst: bonsai.G,
		}, parts)
		if err != nil {
			panic(err)
		}
		diskF := bonsai.ComponentFilter(model, nn, bonsai.Disk)
		sig0 := bonsai.VelocityDispersion(s.Particles(), diskF, 3, 10)
		s.Run(steps)
		sig1 := bonsai.VelocityDispersion(s.Particles(), diskF, 3, 10)
		elapsed := bonsai.Gyr(s.Time())
		results = append(results, result{nn, (sig1*sig1 - sig0*sig0) / elapsed, sig0, sig1})
	}
	for _, r := range results {
		fmt.Printf("N=%7d: sigmaR(3-10 kpc) %6.1f -> %6.1f km/s, d(σ²)/dt = %8.0f (km/s)²/Gyr\n",
			r.n, r.sig0, r.s1, r.ds2dt)
	}
	if results[1].ds2dt > 0 {
		fmt.Printf("heating ratio (N vs 4N): %.1fx (1/N scaling predicts ~4x)\n",
			results[0].ds2dt/results[1].ds2dt)
	}
	fmt.Println("the paper's 51e9-particle run suppresses this heating by a further")
	fmt.Println("factor of ~1e6 — the quantitative case for star-by-star simulation.")
}

func density(c int) byte {
	switch {
	case c == 0:
		return '.'
	case c < 3:
		return ':'
	case c < 10:
		return 'o'
	case c < 30:
		return 'O'
	default:
		return '@'
	}
}
