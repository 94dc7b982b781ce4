package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bonsai/internal/mpi"
)

// probeMPI times a two-rank ping-pong and a p-rank allgather of the
// workload's boundary-tree size over both transports, and the byte rate of
// 1 MiB messages over the unix wire. Calls mpi.NewWorld, NewSocketWorld,
// Send, Recv and Allgather.
func probeMPI(m *metricSet, p, payload int, scratch string) error {
	p = max(p, 2)
	for _, network := range []string{"chan", "unix"} {
		two, err := probeWorld(network, 2, scratch)
		if err != nil {
			return err
		}
		m.set("mpi.pingpong_"+network+"_us", 1e6*pingPong(two, 8, 2000)/2)
		if network == "unix" {
			const mib, msgs = 1 << 20, 32
			m.set("mpi.wire_mb_s", msgs/pingPong(two, mib, msgs/2)/2)
		}
		two.Close()

		all, err := probeWorld(network, p, scratch)
		if err != nil {
			return err
		}
		m.set("mpi.allgather_"+network+"_us", 1e6*allgather(all, payload, max(8, 512/p)))
		all.Close()
	}
	return nil
}

func probeWorld(network string, size int, scratch string) (*mpi.World, error) {
	if network == "chan" {
		return mpi.NewWorld(size), nil
	}
	dir, err := os.MkdirTemp(scratch, "mpi-")
	if err != nil {
		return nil, err
	}
	cfg := mpi.SocketConfig{Network: "unix"}
	for r := 0; r < size; r++ {
		cfg.Addrs = append(cfg.Addrs, filepath.Join(dir, fmt.Sprintf("%d.sock", r)))
		cfg.Local = append(cfg.Local, r)
	}
	return mpi.NewSocketWorld(size, cfg)
}

// pingPong bounces an nbytes message between ranks 0 and 1 and returns the
// mean round-trip time in seconds.
func pingPong(w *mpi.World, nbytes, trips int) float64 {
	buf := make([]byte, nbytes)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := w.Comm(1)
		for i := 0; i < trips+1; i++ {
			c.Send(0, 1, c.Recv(0, 1), nbytes)
		}
	}()
	c := w.Comm(0)
	c.Send(1, 1, buf, nbytes) // first trip dials the links
	c.Recv(1, 1)
	t0 := time.Now()
	for i := 0; i < trips; i++ {
		c.Send(1, 1, buf, nbytes)
		c.Recv(1, 1)
	}
	sec := time.Since(t0).Seconds()
	wg.Wait()
	return sec / float64(trips)
}

// allgather returns the mean time of one Allgather of nbytes per rank.
func allgather(w *mpi.World, nbytes, iters int) float64 {
	var sec float64
	var wg sync.WaitGroup
	for r := 0; r < w.Size(); r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := w.Comm(r)
			buf := make([]byte, nbytes)
			mpi.Allgather(c, buf, nbytes) // first round dials the links
			c.Barrier()
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				mpi.Allgather(c, buf, nbytes)
			}
			if r == 0 {
				sec = time.Since(t0).Seconds()
			}
		}()
	}
	wg.Wait()
	return sec / float64(iters)
}
