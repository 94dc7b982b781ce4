package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"

	"bonsai/internal/mpi"
	"bonsai/internal/obs"
)

// GatherStep is the per-step collective of a traced multi-process run: every
// rank sends rank 0 the records of the force evaluations its step ran, as the
// JSONL obs.WriteStepMetricsJSONL writes, and rank 0 reads them back with
// obs.ReadMetricsJSONL and has its fleet (nil on every other rank) observe
// each evaluation. Only rank 0 can fail: on records that do not decode, or a
// rank that ran a different number of evaluations.
func GatherStep(c *mpi.Comm, f *Fleet, recs []obs.StepMetrics) error {
	var buf bytes.Buffer
	obs.WriteStepMetricsJSONL(&buf, recs) //nolint:errcheck // a bytes.Buffer does not fail
	all := mpi.Gather(c, 0, buf.Bytes(), buf.Len())
	if all == nil {
		return nil
	}
	byRank := make([][]obs.StepMetrics, len(all))
	for r, b := range all {
		recs, err := obs.ReadMetricsJSONL(bytes.NewReader(b))
		if err != nil {
			return fmt.Errorf("telemetry: step records of rank %d: %w", r, err)
		}
		if len(recs) != len(byRank[0]) && r > 0 {
			return fmt.Errorf("telemetry: rank %d reports %d evaluations, rank 0 %d", r, len(recs), len(byRank[0]))
		}
		byRank[r] = recs
	}
	per := make([]obs.StepMetrics, len(all))
	for e := range byRank[0] {
		for r := range byRank {
			per[r] = byRank[r][e]
		}
		f.Observe(per)
	}
	return nil
}

// clockTag is the user tag of the clock probes, far above the simulation's
// own point-to-point tags.
const clockTag = mpi.MaxUserTag - 1

// clockProbes is the number of round trips of one rank's offset estimate.
const clockProbes = 16

// rankEnd is what one rank sends rank 0 at run end.
type rankEnd struct {
	Track obs.RankTrack `json:"track"`
	Pair  []int64       `json:"pair"`
}

// GatherEnd is the run-end collective of a traced multi-process run: rank 0
// estimates every rank's recorder-clock offset against its own (syncClocks),
// then every rank sends it its span track and per-peer byte row. Rank 0
// returns them as one End, every other rank nil. Call after the rank's last
// step, when its recording goroutines are joined.
func GatherEnd(c *mpi.Comm, rec *obs.Recorder) (*End, error) {
	offsets, uncerts := syncClocks(c, rec)
	me := c.Rank()
	mine := rankEnd{Track: rec.Tracks()[me], Pair: make([]int64, c.Size())}
	for to := range mine.Pair {
		mine.Pair[to] = c.World().PairBytes(me, to)
	}
	b, _ := json.Marshal(mine) // integers only: cannot fail
	all := mpi.Gather(c, 0, b, len(b))
	if all == nil {
		return nil, nil
	}
	e := &End{Offsets: offsets, Uncerts: uncerts, Pair: make([][]int64, len(all))}
	for r, b := range all {
		var re rankEnd
		if err := json.Unmarshal(b, &re); err != nil {
			return nil, fmt.Errorf("telemetry: run-end state of rank %d: %w", r, err)
		}
		re.Track.Rank = r
		e.Tracks = append(e.Tracks, re.Track)
		e.Pair[r] = re.Pair
	}
	e.align()
	return e, nil
}

// syncClocks estimates on rank 0 every rank's recorder-clock offset against
// rank 0's, NTP-style over the world: a probe reads t0 on rank 0's clock,
// asks the rank for its clock w and reads t1; if the rank sampled midway,
// offset = (t0+t1)/2 − w, uncertain by half the round trip. The probe with
// the smallest round trip of clockProbes wins: queueing only ever inflates a
// round trip, so the tightest is the most trustworthy. Collective; the other
// ranks answer the probes and return nil.
func syncClocks(c *mpi.Comm, rec *obs.Recorder) (offsets, uncerts []int64) {
	if c.Rank() != 0 {
		for range clockProbes {
			c.Recv(0, clockTag)
			c.Send(0, clockTag, rec.Now(), 8)
		}
		return nil, nil
	}
	offsets, uncerts = make([]int64, c.Size()), make([]int64, c.Size())
	for r := 1; r < c.Size(); r++ {
		best := int64(-1)
		for range clockProbes {
			t0 := rec.Now()
			c.Send(r, clockTag, nil, 0)
			w := c.Recv(r, clockTag).(int64)
			t1 := rec.Now()
			if rtt := t1 - t0; best < 0 || rtt < best {
				best, offsets[r], uncerts[r] = rtt, (t0+t1)/2-w, rtt/2
			}
		}
	}
	return offsets, uncerts
}
