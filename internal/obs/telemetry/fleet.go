// Package telemetry is the fleet view of a traced run. Rank 0 holds it: per
// force evaluation it folds every rank's record into the run's one metrics
// stream, feeds an online straggler watchdog, and keeps each rank's latest
// record for the Prometheus gauges. At run end it holds every rank's span
// track aligned on its own clock, for one merged trace.
//
// An in-process Simulation feeds the fleet view directly. A multi-process run
// feeds it over the mpi.World its ranks already share (plane.go): a gather of
// each step's evaluation records, and one run-end collective that estimates
// every rank's clock offset and carries the spans and per-peer byte rows.
// There is no second channel beside the world.
package telemetry

import (
	"io"
	"sync"
	"time"

	"bonsai/internal/obs"
)

// Fleet is the one fleet view both drivers feed. Observe runs on the driving
// goroutine; WriteProm may run concurrently with it (a library caller reading
// the fleet view while the run steps).
type Fleet struct {
	rec *obs.Recorder

	mu     sync.Mutex
	wd     *Watchdog
	latest []obs.StepMetrics // each rank's latest record; Ranks 0 until it reports
	end    *End
}

// NewFleet creates the fleet view of a ranks-rank run whose folded records go
// to rec. The watchdog starts at DefaultStragglerMult without logging; see
// Watch.
func NewFleet(rec *obs.Recorder, ranks int) *Fleet {
	return &Fleet{rec: rec, wd: NewWatchdog(0, nil), latest: make([]obs.StepMetrics, ranks)}
}

// Watch replaces the straggler watchdog with one of the given threshold and
// alert log (see NewWatchdog).
func (f *Fleet) Watch(mult float64, logf func(format string, args ...any)) {
	f.mu.Lock()
	f.wd = NewWatchdog(mult, logf)
	f.mu.Unlock()
}

// Observe takes one force evaluation's records, indexed by rank: it appends
// their FoldRanks to the recorder's metrics stream, keeps each record as its
// rank's latest, and has the watchdog judge the evaluation.
func (f *Fleet) Observe(per []obs.StepMetrics) {
	var m obs.StepMetrics
	obs.FoldRanks(&m, per)
	f.rec.AddStep(m)
	f.mu.Lock()
	copy(f.latest, per)
	wd := f.wd
	f.mu.Unlock()
	wd.Judge(per)
}

// SetEnd installs the run-end state GatherEnd returned.
func (f *Fleet) SetEnd(e *End) {
	f.mu.Lock()
	f.end = e
	f.mu.Unlock()
}

// End returns the run-end state, nil before SetEnd (always, in-process: the
// ranks of a Simulation share one recorder, clock and world) or for a nil
// fleet.
func (f *Fleet) End() *End {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.end
}

// End is a multi-process run's end-of-run state as rank 0 holds it, indexed
// by rank.
type End struct {
	Tracks  []obs.RankTrack // span tracks, ShiftNS aligning each on the merged timeline
	Offsets []int64         // recorder-clock offset vs rank 0's, ns (0 for rank 0)
	Uncerts []int64         // ± bound of each offset: half the best probe round trip, ns
	Pair    [][]int64       // cumulative bytes sent, [from][to]
}

// MaxUncertainty is the bound on residual cross-rank clock skew in the
// merged trace: the worst offset uncertainty.
func (e *End) MaxUncertainty() time.Duration {
	var worst int64
	for _, u := range e.Uncerts {
		worst = max(worst, u)
	}
	return time.Duration(worst)
}

// WriteTrace writes every rank's spans as one Chrome trace: one Perfetto
// process track per rank on rank 0's clock, the earliest span at t=0.
func (e *End) WriteTrace(w io.Writer) error { return obs.WriteChromeTraceTracks(w, e.Tracks) }

// align sets each track's shift to its rank's offset, less the shifted start
// of the earliest span (trace viewers dislike huge absolute timestamps).
func (e *End) align() {
	base, haveBase := int64(0), false
	for i, tr := range e.Tracks {
		for _, s := range tr.Spans {
			if shifted := s.Start + e.Offsets[i]; !haveBase || shifted < base {
				base, haveBase = shifted, true
			}
		}
	}
	for i := range e.Tracks {
		e.Tracks[i].ShiftNS = e.Offsets[i] - base
	}
}
