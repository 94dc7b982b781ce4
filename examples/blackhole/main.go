// Black hole: the paper's §VII outlook, working.
//
// "The galaxy simulations could then be enriched with, for example, stellar
// evolution and massive black holes with their stellar cusps. The
// gravitational interactions around the black holes require the accuracy of
// a direct N-body code ... running on the CPU while the tree-code would be
// running on the GPU."
//
// This example drops a massive black hole with a tight stellar cusp into a
// live galaxy. The galaxy is integrated by the Barnes–Hut tree-code; the
// black hole and its cusp stars by a 4th-order Hermite direct integrator
// whose orbits resolve scales far below the tree's softening. The two are
// coupled AMUSE-style with second-order bridge kicks.
//
//	go run ./examples/blackhole
package main

import (
	"flag"
	"fmt"
	"math"

	"bonsai"
)

func main() {
	var (
		nGal  = flag.Int("n", 5_000, "galaxy particles")
		steps = flag.Int("steps", 200, "bridge steps")
	)
	flag.Parse()

	// A Plummer galaxy in model units (G = M = a = 1).
	galaxy := bonsai.NewPlummer(*nGal, 1, 1, 1, 42)

	// A black hole of 2% the galaxy mass at rest in the centre, with three
	// cusp stars on orbits 25x tighter than the tree softening below.
	const (
		mbh  = 0.02
		msta = 1e-5
		eps  = 0.05 // tree softening
	)
	sub := []bonsai.Particle{{Mass: mbh}}
	for i, r := range []float64{0.002, 0.004, 0.008} {
		v := math.Sqrt(mbh / r)
		phi := float64(i) * 2 * math.Pi / 3
		sub = append(sub, bonsai.Particle{
			Pos:  bonsai.Vec3{X: r * math.Cos(phi), Y: r * math.Sin(phi)},
			Vel:  bonsai.Vec3{X: -v * math.Sin(phi), Y: v * math.Cos(phi)},
			Mass: msta,
			ID:   int64(i + 1),
		})
	}

	h, err := bonsai.NewHybrid(galaxy, sub, bonsai.HybridConfig{
		Theta:     0.4,
		Softening: eps,
		DT:        2e-3,
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("galaxy: %d tree particles (softening %.3f)\n", *nGal, eps)
	fmt.Printf("subsystem: black hole (m=%.3f) + %d cusp stars at r = 0.002-0.008\n", mbh, len(sub)-1)
	fmt.Println("the innermost orbit is 25x smaller than the tree softening: only the")
	fmt.Println("Hermite side can integrate it.")

	k0, p0 := h.Energy()
	fmt.Printf("\n%8s %10s %14s %14s %12s\n", "step", "t", "E total", "cusp r_max", "BH |x|")
	for i := 0; i <= *steps; i += *steps / 10 {
		if i > 0 {
			h.Run(*steps / 10)
		}
		k, p := h.Energy()
		cur := h.Subsystem()
		bh := cur[0]
		rmax := 0.0
		for _, s := range cur[1:] {
			d := s.Pos.Sub(bh.Pos).Norm()
			if d > rmax {
				rmax = d
			}
		}
		fmt.Printf("%8d %10.3f %14.6e %14.5f %12.5f\n",
			i, h.Time(), k+p, rmax, bh.Pos.Norm())
	}
	k1, p1 := h.Energy()
	fmt.Printf("\nrelative energy drift of the coupled system: %.2e\n",
		math.Abs((k1+p1-k0-p0)/(k0+p0)))
	fmt.Println("the cusp stays bound at radii the softened tree could never resolve —")
	fmt.Println("the paper's CPU/GPU multi-physics split, in working form.")
}
