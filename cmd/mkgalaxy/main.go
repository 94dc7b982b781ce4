// Command mkgalaxy generates initial conditions for the simulator: the
// paper's Milky Way model (NFW halo + exponential disk + Hernquist bulge,
// equal-mass particles) or a Plummer sphere, written as a binary snapshot.
//
// Usage:
//
//	mkgalaxy -model milkyway -n 1000000 -seed 42 -o mw_1m.snap
//	mkgalaxy -model plummer -n 100000 -o plummer.snap
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"bonsai"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mkgalaxy: ")

	var (
		model = flag.String("model", "milkyway", "model to generate: milkyway or plummer")
		n     = flag.Int("n", 100_000, "number of particles")
		seed  = flag.Int64("seed", 42, "random seed")
		out   = flag.String("o", "galaxy.snap", "output snapshot path")
	)
	flag.Parse()
	if *n < 1 {
		log.Printf("-n %d: need at least 1 particle", *n)
		flag.Usage()
		os.Exit(2)
	}

	var parts []bonsai.Particle
	switch *model {
	case "milkyway":
		g := bonsai.MilkyWayModel()
		parts = g.Realize(*n, *seed, runtime.GOMAXPROCS(0))
		nb, nd, nh := g.Counts(*n)
		fmt.Printf("Milky Way model: %d particles (bulge %d, disk %d, halo %d)\n", *n, nb, nd, nh)
		fmt.Printf("  masses: halo %.1fe10, disk %.1fe10, bulge %.2fe10 Msun\n",
			g.HaloMass, g.DiskMass, g.BulgeMass)
		fmt.Printf("  particle mass: %.3e x 1e10 Msun; softening for this N: %.4f kpc\n",
			parts[0].Mass, bonsai.SofteningForN(*n))
	case "plummer":
		parts = bonsai.NewPlummer(*n, 1, 1, 1, *seed)
		fmt.Printf("Plummer sphere: %d particles, model units (G=M=a=1)\n", *n)
	default:
		log.Fatalf("unknown model %q (want milkyway or plummer)", *model)
	}

	if err := bonsai.SaveSnapshot(*out, 0, 0, parts); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%.1f MB)\n", *out, float64(info.Size())/1e6)
}
