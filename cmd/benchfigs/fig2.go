package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"bonsai/internal/body"
	"bonsai/internal/domain"
	"bonsai/internal/ic"
	"bonsai/internal/keys"
	"bonsai/internal/lettree"
	"bonsai/internal/mpi"
	"bonsai/internal/octree"
	"bonsai/internal/psort"
	"bonsai/internal/vec"
)

// printFig2 reproduces Fig. 2: a Peano–Hilbert space-filling-curve domain
// decomposition of a disk into 5 domains, rendered as an ASCII ownership
// map, plus the boundary-cell statistics (the gray squares of the figure:
// tree cells owned by a single process).
func printFig2(outdir string) {
	section("FIG. 2 — Peano-Hilbert SFC domain decomposition (5 domains)")

	const p = 5
	const n = 30_000
	model := ic.DefaultMilkyWay()
	parts := ic.MilkyWay(model, n, 7, 0)
	// Flatten to the disk plane for the 2-D illustration.
	for i := range parts {
		parts[i].Pos.Z = 0
	}

	grid := keys.NewGrid(body.Bounds(parts))
	w := mpi.NewWorld(p)
	var dec domain.Decomposition
	var wg sync.WaitGroup
	owned := make([][]body.Particle, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			lo, hi := r*n/p, (r+1)*n/p
			local := parts[lo:hi]
			hk := make([]keys.Key, len(local))
			for i := range local {
				hk[i] = grid.HilbertOf(local[i].Pos)
			}
			d := domain.SampleDecompose(c, hk, nil, domain.Options{})
			owned[r] = domain.Exchange(c, d, local, grid)
			if r == 0 {
				dec = d
			}
		}(r)
	}
	wg.Wait()

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
	maxc := 0
	for _, c := range counts {
		if c > maxc {
			maxc = c
		}
	}
	fmt.Printf("max/avg = %.3f\n", float64(maxc)/(float64(n)/p))

	// Boundary-tree statistics: the paper's gray cells are single-owner tree
	// cells; each rank's boundary tree is its top levels plus multipoles.
	fmt.Println("\nboundary trees (the LET-exchange currency):")
	for r := 0; r < p; r++ {
		pos := make([]vec.V3, len(owned[r]))
		mass := make([]float64, len(owned[r]))
		for i := range owned[r] {
			pos[i] = owned[r][i].Pos
			mass[i] = owned[r][i].Mass
		}
		tr := buildTree(pos, mass, grid)
		bt := lettree.BoundaryTree(tr, 4, body.Bounds(owned[r]))
		fmt.Printf("  rank %d: local tree %5d cells -> boundary tree %4d cells, %5d particles, %6.1f KiB\n",
			r, len(tr.Cells), len(bt.Cells), len(bt.Pos), float64(bt.WireBytes())/1024)
	}

	// Contiguity: along the Hilbert curve each domain is one key interval.
	fmt.Println("\nHilbert-key intervals (each rank owns one contiguous range of the curve):")
	for r := 0; r < p; r++ {
		fmt.Printf("  rank %d: [%d, %d)\n", r, dec.Bounds[r], dec.Bounds[r+1])
	}
	writeFig2PGM(filepath.Join(outdir, "fig2_domains.pgm"), owned, extent)
}

func buildTree(pos []vec.V3, mass []float64, grid keys.Grid) *octree.Tree {
	kv := make([]psort.KV, len(pos))
	for i := range pos {
		kv[i] = psort.KV{Key: uint64(grid.MortonOf(pos[i])), Idx: int32(i)}
	}
	psort.Sort(kv, 0)
	sk := make([]keys.Key, len(pos))
	sp := make([]vec.V3, len(pos))
	sm := make([]float64, len(pos))
	for i, e := range kv {
		sk[i] = keys.Key(e.Key)
		sp[i] = pos[e.Idx]
		sm[i] = mass[e.Idx]
	}
	return octree.Build(sk, sp, sm, grid, 16)
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
