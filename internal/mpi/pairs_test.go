package mpi

import (
	"sync"
	"testing"
)

func TestPairBytesDisabledByDefault(t *testing.T) {
	w := spawn(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, nil, 100)
		} else {
			c.Recv(0, 1)
		}
	})
	if got := w.PairBytes(0, 1); got != 0 {
		t.Errorf("PairBytes without MeterPairs = %d, want 0", got)
	}
}

func TestMeterPairsSumsToBytesSent(t *testing.T) {
	const size = 3
	w := NewWorld(size)
	w.MeterPairs()

	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			// Every rank sends 10·(rank+1) declared bytes to each other rank.
			for to := 0; to < size; to++ {
				if to != r {
					c.Send(to, 1, r, 10*(r+1))
				}
			}
			for i := 0; i < size-1; i++ {
				c.RecvAny(1)
			}
		}(r)
	}
	wg.Wait()

	for from := 0; from < size; from++ {
		for to := 0; to < size; to++ {
			want := int64(0)
			if from != to {
				want = int64(10 * (from + 1))
			}
			if got := w.PairBytes(from, to); got != want {
				t.Errorf("PairBytes(%d,%d) = %d, want %d", from, to, got, want)
			}
		}
	}
	// The pair matrix must sum to the per-rank meters.
	for from := 0; from < size; from++ {
		var sum int64
		for to := 0; to < size; to++ {
			sum += w.PairBytes(from, to)
		}
		if sum != w.BytesSent(from) {
			t.Errorf("rank %d: pair matrix sums to %d, BytesSent says %d", from, sum, w.BytesSent(from))
		}
	}
}
