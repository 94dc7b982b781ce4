// Decomposition: visualizes the Peano–Hilbert space-filling-curve domain
// decomposition of the paper's Fig. 2.
//
// A disk galaxy is distributed over five ranks; after the sampling
// decomposition and particle exchange, each rank owns one contiguous
// interval of the global PH curve — fractal-looking but spatially compact
// domains with small surfaces, which is what keeps the LET exchange cheap.
//
//	go run ./examples/decomposition
package main

import (
	"flag"
	"fmt"
	"math"

	"bonsai"
)

func main() {
	var (
		n     = flag.Int("n", 25_000, "particles")
		ranks = flag.Int("ranks", 5, "domains (the figure uses 5)")
		cells = flag.Int("cells", 44, "ASCII map resolution")
	)
	flag.Parse()

	parts := bonsai.NewMilkyWay(*n, 7)
	s, err := bonsai.New(bonsai.Config{
		Ranks: *ranks, Theta: 0.4, Softening: bonsai.SofteningForN(*n),
		GravConst: bonsai.G,
	}, parts)
	if err != nil {
		panic(err)
	}
	// One force iteration runs the sampling decomposition and the exchange.
	st := s.ComputeForces()

	cur := s.Particles() // sorted by ID
	owners := s.Owners() // rank per particle, same order

	// Face-on ownership map of the inner disk.
	extent := 16.0
	grid := make([][]int, *cells)
	for i := range grid {
		grid[i] = make([]int, *cells)
		for j := range grid[i] {
			grid[i][j] = -1
		}
	}
	for i, p := range cur {
		if math.Abs(p.Pos.Z) > 2 {
			continue
		}
		x := int((p.Pos.X + extent) / (2 * extent) * float64(*cells))
		y := int((p.Pos.Y + extent) / (2 * extent) * float64(*cells))
		if x >= 0 && x < *cells && y >= 0 && y < *cells {
			grid[y][x] = owners[i]
		}
	}
	fmt.Printf("face-on ownership of the inner %.0f kpc (digit = rank, '.' = empty):\n\n", extent)
	for y := *cells - 1; y >= 0; y-- {
		row := make([]byte, *cells)
		for x := 0; x < *cells; x++ {
			if grid[y][x] < 0 {
				row[x] = '.'
			} else {
				row[x] = byte('0' + grid[y][x])
			}
		}
		fmt.Println(string(row))
	}

	// Balance and communication diagnostics.
	fmt.Printf("\nparticles per rank: %v\n", s.RankCounts())
	maxc, avg := 0, float64(*n)/float64(*ranks)
	for _, c := range s.RankCounts() {
		if c > maxc {
			maxc = c
		}
	}
	fmt.Printf("imbalance max/avg = %.3f (the paper caps this at 1.30)\n", float64(maxc)/avg)
	fmt.Printf("LET exchange this step: %d full LETs pushed, %d pairs served by boundary trees, %.2f MB\n",
		st.LETsSent, st.BoundaryUsed, float64(st.BytesSent)/1e6)

	// Domain compactness: mean in-plane radius of each rank's centroid
	// spread vs the disk size — SFC domains are spatially localized.
	sumR := make([]float64, *ranks)
	sumX := make([]bonsai.Vec3, *ranks)
	cnt := make([]int, *ranks)
	for i, p := range cur {
		o := owners[i]
		sumX[o] = sumX[o].Add(p.Pos)
		cnt[o]++
	}
	for i, p := range cur {
		o := owners[i]
		cx, cy := sumX[o].X/float64(cnt[o]), sumX[o].Y/float64(cnt[o])
		sumR[o] += math.Hypot(p.Pos.X-cx, p.Pos.Y-cy)
	}
	fmt.Println("\ndomain compactness (mean distance of a particle to its domain centroid, kpc):")
	for r := 0; r < *ranks; r++ {
		if cnt[r] > 0 {
			fmt.Printf("  rank %d: %.1f kpc over %d particles\n", r, sumR[r]/float64(cnt[r]), cnt[r])
		}
	}
}
