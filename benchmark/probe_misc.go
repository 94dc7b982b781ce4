package main

import (
	"os"
	"path/filepath"
	"time"

	"bonsai"
)

// probeSnapshot times the facade's single-file snapshot round trip on the
// workload's particles. Calls bonsai.SaveSnapshot and bonsai.LoadSnapshot.
func probeSnapshot(m *metricSet, parts []bonsai.Particle, scratch string) error {
	path := filepath.Join(scratch, "probe.snap")
	defer os.Remove(path)
	var err error
	save := medianTime(3, func() {
		if e := bonsai.SaveSnapshot(path, 0, 0, parts); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	load := medianTime(3, func() {
		if _, _, _, e := bonsai.LoadSnapshot(path); e != nil {
			err = e
		}
	})
	mb := float64(info.Size()) / 1e6
	m.set("snapshot.save_mb_s", mb/save)
	m.set("snapshot.load_mb_s", mb/load)
	return err
}

// medianTime runs fn reps times and returns the median duration in seconds.
func medianTime(reps int, fn func()) float64 {
	secs := make([]float64, reps)
	for i := range secs {
		t0 := time.Now()
		fn()
		secs[i] = time.Since(t0).Seconds()
	}
	return median(secs)
}
