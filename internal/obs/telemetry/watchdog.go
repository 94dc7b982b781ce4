package telemetry

import (
	"sort"
	"sync"

	"bonsai/internal/obs"
)

// Alert is one watchdog finding: a rank whose step time exceeded the
// configured multiple of that evaluation's cross-rank median.
type Alert struct {
	Step     int
	Rank     int
	StepMS   float64
	MedianMS float64
}

// Watchdog runs tracestats-style straggler detection online: the collector
// feeds it per-rank step records as they are scraped, and once every rank has
// reported an evaluation it compares each rank's step time against the
// cross-rank median, alerting on any rank above mult × median. Multiples at
// or below 1 would flag roughly half the ranks every step, so NewWatchdog
// replaces them with the default.
type Watchdog struct {
	ranks int
	mult  float64
	logf  func(format string, args ...any)

	mu      sync.Mutex
	pending map[int]map[int]float64 // step -> rank -> step ms
	judged  map[int]bool
	alerts  []Alert
}

// DefaultStragglerMult is the alert threshold when none is configured: a rank
// is a straggler when its step time exceeds twice the cross-rank median.
const DefaultStragglerMult = 2.0

// NewWatchdog creates a watchdog for the given world size. logf (nil allowed)
// receives one formatted line per alert.
func NewWatchdog(ranks int, mult float64, logf func(format string, args ...any)) *Watchdog {
	if mult <= 1 {
		mult = DefaultStragglerMult
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Watchdog{
		ranks: ranks, mult: mult, logf: logf,
		pending: map[int]map[int]float64{}, judged: map[int]bool{},
	}
}

// Record feeds one per-rank step record. Re-reports of an already-judged
// (step, rank) are ignored, so re-scraping is harmless.
func (wd *Watchdog) Record(m obs.StepMetrics) {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	if wd.judged[m.Step] {
		return
	}
	cell := wd.pending[m.Step]
	if cell == nil {
		cell = map[int]float64{}
		wd.pending[m.Step] = cell
	}
	cell[m.Rank] = obs.Millis(m.MaxTimes[obs.Total])
	if len(cell) < wd.ranks {
		return
	}
	wd.judged[m.Step] = true
	delete(wd.pending, m.Step)

	times := make([]float64, 0, len(cell))
	for _, v := range cell {
		times = append(times, v)
	}
	sort.Float64s(times)
	med := times[len(times)/2]
	if len(times)%2 == 0 {
		med = (med + times[len(times)/2-1]) / 2
	}
	if med <= 0 {
		return
	}
	rankIDs := make([]int, 0, len(cell))
	for r := range cell {
		rankIDs = append(rankIDs, r)
	}
	sort.Ints(rankIDs)
	for _, r := range rankIDs {
		if v := cell[r]; v > wd.mult*med {
			wd.alerts = append(wd.alerts, Alert{Step: m.Step, Rank: r, StepMS: v, MedianMS: med})
			wd.logf("telemetry: straggler alert: eval %d rank %d step %.2f ms > %.1f× median %.2f ms",
				m.Step, r, v, wd.mult, med)
		}
	}
}

// Alerts returns a copy of every alert fired so far.
func (wd *Watchdog) Alerts() []Alert {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	return append([]Alert(nil), wd.alerts...)
}
