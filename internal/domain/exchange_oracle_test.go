package domain

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/keys"
	"bonsai/internal/mpi"
	"bonsai/internal/vec"
)

// exchangeOracle is the append-grown Exchange: bins grown per particle, the
// self bin sent through Alltoallv, and the received slices concatenated in
// source order. TestExchangeMatchesOracle holds the copy-once Exchange to it.
func exchangeOracle(c *mpi.Comm, dec Decomposition, parts []body.Particle, g keys.Grid) []body.Particle {
	p := c.Size()
	outgoing := make([][]body.Particle, p)
	for i := range parts {
		owner := dec.Owner(g.HilbertOf(parts[i].Pos))
		outgoing[owner] = append(outgoing[owner], parts[i])
	}
	recv := mpi.Alltoallv(c, outgoing, body.WireBytes)
	var mine []body.Particle
	for _, r := range recv {
		mine = append(mine, r...)
	}
	return mine
}

// exchangeInputs gives each of p ranks its particles: uniform in a cube, or
// drawn around three tight clusters with exact duplicates among them and the
// last rank empty.
func exchangeInputs(p int, clustered bool) [][]body.Particle {
	in := make([][]body.Particle, p)
	for r := range in {
		rng := rand.New(rand.NewSource(int64(r)*131 + 7))
		n := 300 + 50*r
		if clustered && r == p-1 && p > 1 {
			n = 0
		}
		for i := 0; i < n; i++ {
			pos := vec.V3{X: 2*rng.Float64() - 1, Y: 2*rng.Float64() - 1, Z: 2*rng.Float64() - 1}
			if clustered {
				c := float64(rng.Intn(3)) - 1
				pos = vec.V3{X: c + 0.02*rng.NormFloat64(), Y: 0.5*c + 0.02*rng.NormFloat64(), Z: 0.02 * rng.NormFloat64()}
				if i%10 == 9 {
					pos = in[r][i-1].Pos
				}
			}
			in[r] = append(in[r], body.Particle{Pos: pos, Vel: vec.V3{X: float64(i)}, Mass: 1 + rng.Float64(),
				Weight: rng.Float64(), ID: int64(r)<<32 | int64(i), Rung: uint8(i % 5)})
		}
	}
	return in
}

// runExchange runs exchange on every rank of a fresh p-rank world over
// transport and returns each rank's result and the world, its pair-byte
// matrix enabled.
func runExchange(t *testing.T, transport string, in [][]body.Particle, dec Decomposition, g keys.Grid,
	exchange func(*mpi.Comm, Decomposition, []body.Particle, keys.Grid) []body.Particle) ([][]body.Particle, *mpi.World) {
	t.Helper()
	p := len(in)
	var w *mpi.World
	if transport == "unix" {
		cfg := mpi.SocketConfig{Network: "unix"}
		dir := t.TempDir()
		for r := 0; r < p; r++ {
			cfg.Addrs = append(cfg.Addrs, filepath.Join(dir, fmt.Sprintf("r%d.sock", r)))
			cfg.Local = append(cfg.Local, r)
		}
		var err error
		if w, err = mpi.NewSocketWorld(p, cfg); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
	} else {
		w = mpi.NewWorld(p)
	}
	w.MeterPairs()
	out := make([][]body.Particle, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out[r] = exchange(w.Comm(r), dec, in[r], g)
		}(r)
	}
	wg.Wait()
	return out, w
}

func TestExchangeMatchesOracle(t *testing.T) {
	for _, transport := range []string{"chan", "unix"} {
		for _, p := range []int{1, 3, 8} {
			for _, clustered := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/p%d/clustered=%v", transport, p, clustered), func(t *testing.T) {
					in := exchangeInputs(p, clustered)
					pristine := make([][]body.Particle, p)
					var all []body.Particle
					for r := range in {
						pristine[r] = slices.Clone(in[r])
						all = append(all, in[r]...)
					}
					g := keys.NewGrid(body.Bounds(all))
					hk := make([]keys.Key, len(all))
					for i := range all {
						hk[i] = g.HilbertOf(all[i].Pos)
					}
					slices.Sort(hk)
					dec := Decomposition{Bounds: cut(hk, p)}

					got, wGot := runExchange(t, transport, in, dec, g, Exchange)
					for r := range in {
						if !slices.Equal(in[r], pristine[r]) {
							t.Fatalf("rank %d: Exchange wrote its input", r)
						}
					}
					want, wWant := runExchange(t, transport, in, dec, g, exchangeOracle)
					for r := range want {
						if !slices.Equal(got[r], want[r]) {
							t.Errorf("rank %d: %d particles, oracle %d, or order differs", r, len(got[r]), len(want[r]))
						}
					}
					if a, b := wGot.TotalBytes(), wWant.TotalBytes(); a != b {
						t.Errorf("TotalBytes %d, oracle %d", a, b)
					}
					for from := 0; from < p; from++ {
						for to := 0; to < p; to++ {
							if a, b := wGot.PairBytes(from, to), wWant.PairBytes(from, to); a != b {
								t.Errorf("PairBytes(%d, %d) = %d, oracle %d", from, to, a, b)
							}
						}
					}
				})
			}
		}
	}
}
