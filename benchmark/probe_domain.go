package main

import (
	"sync"
	"time"

	"bonsai"
	"bonsai/internal/body"
	"bonsai/internal/domain"
	"bonsai/internal/keys"
	"bonsai/internal/mpi"
	"bonsai/internal/vec"
)

// probeDomain times the two domain collectives over an in-process world of
// the workload's rank count, every rank starting from the particles it owns.
// The times are rank 0's, between barriers. Calls domain.SampleDecompose and
// domain.Exchange (over mpi.NewWorld).
func probeDomain(m *metricSet, parts []bonsai.Particle, owners []int, p int) {
	local := make([][]body.Particle, p)
	box := vec.EmptyBox()
	for i, pt := range parts {
		bp := body.Particle{Pos: v3(pt.Pos), Vel: v3(pt.Vel), Mass: pt.Mass, ID: pt.ID}
		local[owners[i]] = append(local[owners[i]], bp)
		box = box.Extend(bp.Pos)
	}
	grid := keys.NewGrid(box)
	const reps = 5
	dec, exch := make([]float64, reps), make([]float64, reps)
	world := mpi.NewWorld(p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := world.Comm(r)
			hk := make([]keys.Key, len(local[r]))
			for i := range hk {
				hk[i] = grid.HilbertOf(local[r][i].Pos)
			}
			for i := 0; i < reps; i++ {
				c.Barrier()
				t0 := time.Now()
				d := domain.SampleDecompose(c, hk, nil, domain.Options{})
				c.Barrier()
				t1 := time.Now()
				domain.Exchange(c, d, local[r], grid)
				c.Barrier()
				if r == 0 {
					dec[i], exch[i] = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
				}
			}
		}()
	}
	wg.Wait()
	m.set("domain.decompose_s", median(dec))
	m.set("domain.exchange_s", median(exch))
}
