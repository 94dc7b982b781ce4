// Command snapinfo inspects a snapshot file: header, particle statistics,
// and (for Milky-Way-shaped data) quick structure diagnostics. Useful for
// checking restart files between runs. (A per-step JSONL metrics stream is
// summarized by cmd/tracestats -metrics.)
//
//	snapinfo mw_00050.snap
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"sort"

	"bonsai"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("snapinfo: ")
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("usage: snapinfo file.snap ...")
	}
	for _, path := range flag.Args() {
		t, step, parts, err := bonsai.LoadSnapshot(path)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", path)
		fmt.Printf("  time %.6g (%.3f Gyr if galactic units), step %d, %d particles\n",
			t, bonsai.Gyr(t), step, len(parts))
		if len(parts) == 0 {
			continue
		}
		var mass, kin float64
		var rs []float64
		for _, p := range parts {
			mass += p.Mass
			kin += 0.5 * p.Mass * (p.Vel.X*p.Vel.X + p.Vel.Y*p.Vel.Y + p.Vel.Z*p.Vel.Z)
			rs = append(rs, math.Sqrt(p.Pos.X*p.Pos.X+p.Pos.Y*p.Pos.Y+p.Pos.Z*p.Pos.Z))
		}
		sort.Float64s(rs)
		fmt.Printf("  total mass %.6g, kinetic energy %.6g\n", mass, kin)
		fmt.Printf("  radii: r50=%.3g r90=%.3g rmax=%.3g\n",
			rs[len(rs)/2], rs[len(rs)*9/10], rs[len(rs)-1])
		a2, phase := bonsai.BarStrength(parts, nil, rs[len(rs)/2])
		fmt.Printf("  m=2 amplitude within r50: A2=%.4f (phase %.3f rad)\n", a2, phase)
	}
}
