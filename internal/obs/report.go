package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// RankStepReport is the per-rank, per-evaluation view the straggler analysis
// builds from a trace: when the local walk finished, when LETs arrived
// relative to that, and how long the rank was busy in total.
type RankStepReport struct {
	Rank       int
	StartUS    float64   // first event start timestamp, µs (trace timebase)
	BusyUS     float64   // last event end minus first event start, µs
	WalkEndUS  float64   // local-walk completion timestamp, µs (NaN if absent)
	ArrivalsUS []float64 // full-LET arrival offsets vs WalkEndUS, µs (negative = hidden)
	Hidden     int       // arrivals with offset <= 0
	Late       int       // arrivals with offset > 0
	NoWalkEnd  int       // arrivals with nothing to measure against: WalkEndUS is NaN
	Passes     int       // batched remote-tree passes (walk:let + walk:boundary spans)
	PassTrees  int       // remote trees walked over those passes
}

// StepReport aggregates one force evaluation across ranks.
type StepReport struct {
	Step        int
	Ranks       []RankStepReport
	Straggler   int     // rank with the largest BusyUS
	MeanBusy    float64 // µs
	MaxBusy     float64 // µs
	StartSkewUS float64 // max minus min of the ranks' first-event starts, µs
}

// TraceReport is the full Fig. 5-style analysis of a trace.
type TraceReport struct {
	NumRanks int
	Spans    int
	Steps    []StepReport
	// MaxStartSkewUS is the largest per-evaluation start skew across the run:
	// on a merged multi-process trace this bounds the residual cross-rank
	// clock misalignment plus genuine start jitter.
	MaxStartSkewUS float64
}

// AnalyzeTrace rebuilds the straggler/overlap analysis from exported trace
// events: per (step, rank), the local-walk completion time is the latest end
// of a "walk:local" span, and every "let:arrive" instant is measured against
// it. Metadata events are ignored, so any WriteChromeTrace output round-trips.
func AnalyzeTrace(events []TraceEvent) TraceReport {
	type key struct{ step, rank int }
	type acc struct {
		first, last float64
		walkEnd     float64
		arrivals    []float64 // absolute ts, µs
		passes      int
		passTrees   int
		any         bool
	}
	cells := map[key]*acc{}
	ranks := map[int]bool{}
	steps := map[int]bool{}
	spans := 0

	get := func(k key) *acc {
		a := cells[k]
		if a == nil {
			a = &acc{first: math.Inf(1), last: math.Inf(-1), walkEnd: math.NaN()}
			cells[k] = a
		}
		return a
	}
	for _, ev := range events {
		if ev.Ph != "X" && ev.Ph != "i" {
			continue
		}
		step, ok := argInt(ev.Args, "step")
		if !ok {
			continue
		}
		spans++
		ranks[ev.PID] = true
		steps[step] = true
		a := get(key{step, ev.PID})
		a.any = true
		end := ev.TS + ev.Dur
		if ev.TS < a.first {
			a.first = ev.TS
		}
		if end > a.last {
			a.last = end
		}
		switch ev.Name {
		case PhaseWalkLocal.String(), PhaseWalkDone.String():
			if math.IsNaN(a.walkEnd) || end > a.walkEnd {
				a.walkEnd = end
			}
		case PhaseArrive.String():
			a.arrivals = append(a.arrivals, ev.TS)
		case PhaseWalkLET.String(), PhaseWalkBound.String():
			a.passes++
			n, _ := argInt(ev.Args, "arg")
			a.passTrees += n
		}
	}

	rep := TraceReport{NumRanks: len(ranks), Spans: spans}
	stepIDs := make([]int, 0, len(steps))
	for s := range steps {
		stepIDs = append(stepIDs, s)
	}
	sort.Ints(stepIDs)
	rankIDs := make([]int, 0, len(ranks))
	for r := range ranks {
		rankIDs = append(rankIDs, r)
	}
	sort.Ints(rankIDs)

	for _, s := range stepIDs {
		sr := StepReport{Step: s, Straggler: -1}
		startLo, startHi := math.Inf(1), math.Inf(-1)
		for _, r := range rankIDs {
			a := cells[key{s, r}]
			if a == nil || !a.any {
				continue
			}
			rr := RankStepReport{Rank: r, StartUS: a.first, BusyUS: a.last - a.first, WalkEndUS: a.walkEnd,
				Passes: a.passes, PassTrees: a.passTrees}
			startLo = math.Min(startLo, a.first)
			startHi = math.Max(startHi, a.first)
			// A truncated trace or a full span buffer can keep a rank's
			// arrivals but lose its walk end: those are neither hidden nor late.
			if math.IsNaN(a.walkEnd) {
				rr.NoWalkEnd = len(a.arrivals)
			} else {
				for _, ts := range a.arrivals {
					off := ts - a.walkEnd
					rr.ArrivalsUS = append(rr.ArrivalsUS, off)
					if off > 0 {
						rr.Late++
					} else {
						rr.Hidden++
					}
				}
			}
			sr.MeanBusy += rr.BusyUS
			if rr.BusyUS > sr.MaxBusy {
				sr.MaxBusy = rr.BusyUS
				sr.Straggler = r
			}
			sr.Ranks = append(sr.Ranks, rr)
		}
		if len(sr.Ranks) > 0 {
			sr.MeanBusy /= float64(len(sr.Ranks))
		}
		if len(sr.Ranks) > 1 {
			sr.StartSkewUS = startHi - startLo
			if sr.StartSkewUS > rep.MaxStartSkewUS {
				rep.MaxStartSkewUS = sr.StartSkewUS
			}
		}
		rep.Steps = append(rep.Steps, sr)
	}
	return rep
}

func argInt(args map[string]any, name string) (int, bool) {
	v, ok := args[name]
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case float64:
		return int(n), true
	case int:
		return n, true
	}
	return 0, false
}

// Format prints the per-rank LET-arrival-vs-walk-completion report: one block
// per force evaluation naming the straggler, the remote-walk batching (passes
// per rank per evaluation and mean trees per pass), then a combined
// log-bucketed histogram of arrival offsets over all ranks and steps
// (negative buckets are LETs hidden behind the local walk).
func (rep TraceReport) Format(w io.Writer) {
	fmt.Fprintf(w, "trace: %d ranks, %d evaluations, %d events\n",
		rep.NumRanks, len(rep.Steps), rep.Spans)
	if rep.NumRanks > 1 {
		fmt.Fprintf(w, "cross-rank start skew: max %.3f ms over the run\n", rep.MaxStartSkewUS/1e3)
	}
	all := Hist{Name: "LET arrival offset vs local-walk completion", Unit: "ns"}
	passes, passTrees, rankEvals := 0, 0, 0
	for _, sr := range rep.Steps {
		over := 0.0
		if sr.MeanBusy > 0 {
			over = (sr.MaxBusy/sr.MeanBusy - 1) * 100
		}
		fmt.Fprintf(w, "eval %d: straggler rank %d (busy %.2f ms, +%.0f%% over mean %.2f ms)\n",
			sr.Step, sr.Straggler, sr.MaxBusy/1e3, over, sr.MeanBusy/1e3)
		for _, rr := range sr.Ranks {
			passes += rr.Passes
			passTrees += rr.PassTrees
			rankEvals++
			line := fmt.Sprintf("  rank %d: busy %8.2f ms", rr.Rank, rr.BusyUS/1e3)
			switch {
			case len(rr.ArrivalsUS) > 0:
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, off := range rr.ArrivalsUS {
					lo = math.Min(lo, off)
					hi = math.Max(hi, off)
					all.Observe(int64(off * 1e3)) // µs → ns
				}
				line += fmt.Sprintf("  LET arrivals: %d hidden, %d late, offsets [%s, %s]",
					rr.Hidden, rr.Late, formatDur(lo*1e3), formatDur(hi*1e3))
			case rr.NoWalkEnd > 0:
				line += fmt.Sprintf("  LET arrivals: %d, no local-walk end to measure them against", rr.NoWalkEnd)
			default:
				line += "  LET arrivals: none"
			}
			fmt.Fprintln(w, line)
		}
	}
	if passes > 0 {
		fmt.Fprintf(w, "remote walk: %.2f batched passes per rank per evaluation, mean %.1f trees per pass\n",
			float64(passes)/float64(rankEvals), float64(passTrees)/float64(passes))
	}
	fmt.Fprintln(w)
	all.Format(w)
}

// FormatMetricsSummary prints the per-step JSONL metrics stream as the same
// overlap/straggler table: one line per force evaluation plus run totals, and
// a warning when trace spans were dropped. Every stream holds one record per
// evaluation, folded over ranks by the run's fleet view.
func FormatMetricsSummary(w io.Writer, steps []StepMetrics) {
	if len(steps) == 0 {
		fmt.Fprintln(w, "metrics: no step records")
		return
	}
	fmt.Fprintf(w, "metrics: %d evaluations, %d ranks\n", len(steps), steps[0].Ranks)
	fmt.Fprintf(w, "%5s %10s %10s %7s %10s %8s %7s %14s %10s\n",
		"step", "mean ms", "max ms", "imb%", "straggler", "overlap", "LETs", "worst arr ms", "nonhid ms")
	var overlapSum float64
	var worstArr time.Duration
	var dropped int64
	worstStep := -1
	stragglerHits := map[int]int{}
	for _, m := range steps {
		fmt.Fprintf(w, "%5d %10.2f %10.2f %6.1f%% %10d %7.0f%% %7d %14.3f %10.3f\n",
			m.Step, Millis(m.Times.Total), Millis(m.MaxTimes.Total), m.ImbalancePct, m.Straggler,
			100*m.OverlapFrac, m.LETsRecv, Millis(m.WorstArrival), Millis(m.Times.NonHiddenComm))
		overlapSum += m.OverlapFrac
		stragglerHits[m.Straggler]++
		if m.ArrivalsSeen > 0 && (worstStep < 0 || m.WorstArrival > worstArr) {
			worstArr, worstStep = m.WorstArrival, m.Step
		}
		dropped = max(dropped, m.SpansDropped)
	}
	worst, hits := -1, 0
	for r, n := range stragglerHits {
		if n > hits || (n == hits && r < worst) {
			worst, hits = r, n
		}
	}
	fmt.Fprintf(w, "overall: mean overlap %.0f%%; most frequent straggler rank %d (%d/%d evaluations)",
		100*overlapSum/float64(len(steps)), worst, hits, len(steps))
	if worstStep >= 0 {
		fmt.Fprintf(w, "; worst LET arrival %+.3f ms after walk end (eval %d)", Millis(worstArr), worstStep)
	}
	fmt.Fprintln(w)
	if dropped > 0 {
		fmt.Fprintf(w, "WARNING: %d spans dropped (full span buffers; the trace is incomplete)\n", dropped)
	}
}
