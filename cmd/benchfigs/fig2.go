package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"bonsai"
	"bonsai/internal/body"
	"bonsai/internal/domain"
	"bonsai/internal/ic"
	"bonsai/internal/keys"
	"bonsai/internal/lettree"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// printFig2 reproduces Fig. 2: a Peano–Hilbert space-filling-curve domain
// decomposition of a disk into 5 domains, rendered as an ASCII ownership
// map, plus the boundary-cell statistics (the gray squares of the figure:
// tree cells owned by a single process). The decomposition is the
// simulation's own: one force evaluation runs the sampling decomposition,
// the particle exchange and the LET exchange over it.
func printFig2(outdir string) {
	section("FIG. 2 — Peano-Hilbert SFC domain decomposition (5 domains)")

	// The Milky Way model's live disk alone: the disk block of a full
	// realization sized to hold about 30k disk particles.
	const p = 5
	m := ic.DefaultMilkyWay()
	nAll := int(30_000 * (m.HaloMass + m.DiskMass + m.BulgeMass) / m.DiskMass)
	nb, nd, _ := m.Counts(nAll)
	parts := slices.Clone(m.Realize(nAll, 7, runtime.GOMAXPROCS(0))[nb : nb+nd])
	n := len(parts)
	s, err := bonsai.New(bonsai.Config{
		Ranks: p, Theta: 0.4, Softening: bonsai.SofteningForN(n), GravConst: bonsai.G,
	}, parts)
	if err != nil {
		panic(err)
	}
	st := s.ComputeForces()
	cur, owned := s.Particles(), make([][]body.Particle, p)
	for i, r := range s.Owners() {
		owned[r] = append(owned[r], cur[i])
	}

	// ASCII ownership map over the inner disk.
	const cells = 48
	extent := 18.0
	fmt.Printf("ownership of the inner %.0f kpc (digit = owning rank; '.' = empty):\n\n", extent)
	counts := make([]int, p)
	occupancy := map[[2]int]int{}
	for r, ps := range owned {
		counts[r] = len(ps)
		for i := range ps {
			x := int((ps[i].Pos.X + extent) / (2 * extent) * cells)
			y := int((ps[i].Pos.Y + extent) / (2 * extent) * cells)
			if x >= 0 && x < cells && y >= 0 && y < cells {
				occupancy[[2]int{x, y}] = r + 1
			}
		}
	}
	for y := cells - 1; y >= 0; y-- {
		row := make([]byte, cells)
		for x := 0; x < cells; x++ {
			if r, ok := occupancy[[2]int{x, y}]; ok {
				row[x] = byte('0' + r - 1)
			} else {
				row[x] = '.'
			}
		}
		fmt.Println(string(row))
	}

	fmt.Printf("\nparticles per domain: %v (imbalance cap %.0f%%)\n", counts, 100*(domain.ImbalanceCap-1))
	fmt.Printf("max/avg = %.3f\n", float64(slices.Max(counts))/(float64(n)/p))
	fmt.Printf("LET exchange this step: %d full LETs pushed, %d pairs served by boundary trees, %.2f MB\n",
		st.LETsSent, st.BoundaryUsed, float64(st.BytesSent)/1e6)

	// Boundary-tree statistics: the paper's gray cells are single-owner tree
	// cells; each rank's boundary tree is its top levels plus multipoles.
	fmt.Printf("\nboundary trees (the LET-exchange currency) and domain compactness (mean distance\n")
	fmt.Printf("of a particle inside the map to its domain's centroid there: SFC domains are compact):\n")
	for r, ps := range owned {
		pos := make([]vec.V3, len(ps))
		mass := make([]float64, len(ps))
		for i := range ps {
			pos[i] = ps[i].Pos
			mass[i] = ps[i].Mass
		}
		tr, _ := octree.BuildFrom(pos, mass, 16, 0)
		bt := lettree.BoundaryTree(tr, 4, body.Bounds(ps))
		fmt.Printf("  rank %d: local tree %5d cells -> boundary tree %4d cells, %5d particles, %6.1f KiB; %s\n",
			r, len(tr.Cells), len(bt.Cells), len(bt.Pos), float64(bt.WireBytes())/1024, compactness(pos, extent))
	}

	// Contiguity: along the Hilbert curve each domain is one key interval.
	grid := keys.NewGrid(body.Bounds(parts))
	fmt.Println("\nHilbert-key span of each domain (one contiguous, disjoint range of the curve each):")
	for r, ps := range owned {
		lo, hi := keys.Key(math.MaxUint64), keys.Key(0)
		for i := range ps {
			k := grid.HilbertOf(ps[i].Pos)
			lo, hi = min(lo, k), max(hi, k)
		}
		fmt.Printf("  rank %d: [%d, %d]\n", r, lo, hi)
	}
	writeFig2PGM(filepath.Join(outdir, "fig2_domains.pgm"), owned, extent)
}

// compactness reports the mean distance of the points inside the square of
// the given half-width to their centroid, and how many points it averages.
func compactness(pos []vec.V3, extent float64) string {
	var in []vec.V3
	var c vec.V3
	for _, x := range pos {
		if math.Abs(x.X) < extent && math.Abs(x.Y) < extent {
			in = append(in, x)
			c = c.Add(x)
		}
	}
	if len(in) == 0 {
		return "no particles in the map"
	}
	c = c.Scale(1 / float64(len(in)))
	sum := 0.0
	for _, x := range in {
		sum += x.Sub(c).Norm()
	}
	return fmt.Sprintf("%.1f kpc over %d particles", sum/float64(len(in)), len(in))
}

func writeFig2PGM(path string, owned [][]body.Particle, extent float64) {
	const cells = 256
	img := make([]int, cells*cells)
	for r, ps := range owned {
		shade := 40 + 215*r/len(owned)
		for i := range ps {
			x := int((ps[i].Pos.X + extent) / (2 * extent) * cells)
			y := int((ps[i].Pos.Y + extent) / (2 * extent) * cells)
			if x >= 0 && x < cells && y >= 0 && y < cells {
				img[y*cells+x] = shade
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Println("  (pgm skipped:", err, ")")
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "P2\n%d %d\n255\n", cells, cells)
	for y := cells - 1; y >= 0; y-- {
		for x := 0; x < cells; x++ {
			fmt.Fprintf(f, "%d ", img[y*cells+x])
		}
		fmt.Fprintln(f)
	}
	fmt.Printf("wrote %s\n", path)
}
