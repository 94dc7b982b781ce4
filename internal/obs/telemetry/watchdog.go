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

// Watchdog runs tracestats-style straggler detection online: the fleet view
// hands it every evaluation whole, and it compares each rank's step time
// against the cross-rank median, alerting on any rank above mult × median.
// Multiples at or below 1 would flag roughly half the ranks every step, so
// NewWatchdog replaces them with the default. It keeps nothing per evaluation
// but the alerts.
type Watchdog struct {
	mult float64
	logf func(format string, args ...any)

	mu     sync.Mutex
	alerts []Alert
}

// DefaultStragglerMult is the alert threshold when none is configured: a rank
// is a straggler when its step time exceeds twice the cross-rank median.
const DefaultStragglerMult = 2.0

// NewWatchdog creates a watchdog. logf (nil allowed) receives one formatted
// line per alert.
func NewWatchdog(mult float64, logf func(format string, args ...any)) *Watchdog {
	if mult <= 1 {
		mult = DefaultStragglerMult
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Watchdog{mult: mult, logf: logf}
}

// Judge takes one evaluation's records, one per rank.
func (wd *Watchdog) Judge(per []obs.StepMetrics) {
	if len(per) == 0 {
		return
	}
	times := make([]float64, len(per))
	for i := range per {
		times[i] = obs.Millis(per[i].MaxTimes[obs.Total])
	}
	sort.Float64s(times)
	med := times[len(times)/2]
	if len(times)%2 == 0 {
		med = (med + times[len(times)/2-1]) / 2
	}
	if med <= 0 {
		return
	}
	wd.mu.Lock()
	defer wd.mu.Unlock()
	for i := range per {
		if v := obs.Millis(per[i].MaxTimes[obs.Total]); v > wd.mult*med {
			a := Alert{Step: per[i].Step, Rank: per[i].Rank, StepMS: v, MedianMS: med}
			wd.alerts = append(wd.alerts, a)
			wd.logf("telemetry: straggler alert: eval %d rank %d step %.2f ms > %.1f× median %.2f ms",
				a.Step, a.Rank, v, wd.mult, med)
		}
	}
}

// Alerts returns a copy of every alert fired so far.
func (wd *Watchdog) Alerts() []Alert {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	return append([]Alert(nil), wd.alerts...)
}
