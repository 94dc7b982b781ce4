package sim

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"bonsai/internal/grav"
	"bonsai/internal/obs"
	"bonsai/internal/obs/telemetry"
)

// TestWalkGflopsZeroTime is the divide-by-zero regression: a rank that did
// work but whose walk time rounds to zero must report a finite (zero) rate,
// and can never poison the step's cross-rank record.
func TestWalkGflopsZeroTime(t *testing.T) {
	rs := obs.StepMetrics{Stats: grav.Stats{PP: 1000, PC: 1000}}
	rs.Derive()
	if rs.WalkGflops != 0 {
		t.Errorf("WalkGflops with zero walk time = %v, want 0", rs.WalkGflops)
	}
	var agg obs.StepMetrics
	obs.FoldRanks(&agg, []obs.StepMetrics{rs, {}})
	if math.IsNaN(agg.WalkGflops) || math.IsInf(agg.WalkGflops, 0) {
		t.Errorf("folded WalkGflops not finite: %v", agg.WalkGflops)
	}
	if math.IsNaN(agg.AppGflops) || math.IsInf(agg.AppGflops, 0) {
		t.Errorf("folded AppGflops not finite: %v", agg.AppGflops)
	}
}

func TestDeriveOther(t *testing.T) {
	ms := time.Millisecond
	p := obs.PhaseTimes{SortBuild: 4 * ms, Domain: 2 * ms, TreeProps: 4 * ms,
		GravLocal: 5 * ms, GravLET: 6 * ms, NonHiddenComm: 7 * ms, Total: 30 * ms}
	p.DeriveOther()
	if want := 2 * ms; p.Other != want {
		t.Errorf("Other = %v, want %v", p.Other, want)
	}
	// Clamp: accounted phases exceeding Total (clock skew) must not go negative.
	p.Total = 10 * ms
	p.DeriveOther()
	if p.Other != 0 {
		t.Errorf("Other = %v, want clamped 0", p.Other)
	}
}

// TestPhaseRowsSumToTotal checks the Table II invariant end to end: after a
// real step, every rank's phase rows (including the derived Other) sum to its
// Total.
func TestPhaseRowsSumToTotal(t *testing.T) {
	s, err := New(Config{Ranks: 4, Theta: 0.5, Softening: 0.05, WorkersPerRank: 2}, plummer(2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	for i, n := range s.nodes {
		p := n.r.stats.Times
		sum := p.Accounted() + p.Other
		if p.Other < 0 {
			t.Errorf("rank %d: negative Other %v", i, p.Other)
		}
		// Exact unless the clamp fired (sum > Total means skew ate Other).
		if diff := p.Total - sum; diff > 0 {
			t.Errorf("rank %d: rows sum to %v but Total is %v (missing %v)", i, sum, p.Total, diff)
		}
	}
}

// TestTracingIntegration runs a traced 8-rank simulation and checks every
// layer of the observability stack end to end: spans recorded on each rank,
// arrivals measured, the Chrome trace exports and parses, the analysis finds a
// straggler, and the metrics stream round-trips. Run under -race (make race)
// this doubles as the concurrency test for recording from the receiver,
// builder, and compute goroutines at once.
func TestTracingIntegration(t *testing.T) {
	const ranks = 8
	s, err := New(Config{Ranks: ranks, Theta: 0.5, Softening: 0.05, WorkersPerRank: 2, Tracing: true},
		plummer(4000, 4))
	if err != nil {
		t.Fatal(err)
	}
	rec := s.Recorder()
	stats := s.Step()
	s.Step()

	totalArrivals := 0
	for i := 0; i < ranks; i++ {
		rr := rec.Rank(i)
		spans := rr.Spans()
		if len(spans) == 0 {
			t.Fatalf("rank %d recorded no spans", i)
		}
		seen := map[obs.Phase]bool{}
		for _, sp := range spans {
			seen[sp.Phase] = true
		}
		for _, ph := range []obs.Phase{obs.PhaseSortBuild,
			obs.PhaseWalkLocal, obs.PhaseWalkDone, obs.PhaseBoundary, obs.PhaseIntegrate} {
			if !seen[ph] {
				t.Errorf("rank %d: no %v span", i, ph)
			}
		}
		if rr.Dropped() != 0 {
			t.Errorf("rank %d dropped %d spans at default capacity", i, rr.Dropped())
		}
	}

	// One walk:let / walk:boundary span per batched pass; the passes' tree
	// counts add up to every pair slot.
	var passes, passTrees int64
	for i := 0; i < ranks; i++ {
		for _, sp := range rec.Rank(i).Spans() {
			if sp.Phase == obs.PhaseWalkLET || sp.Phase == obs.PhaseWalkBound {
				passes++
				passTrees += sp.Arg
			}
		}
	}
	if passes == 0 {
		t.Error("no batched remote-tree pass traced")
	}
	// The first step's record folds its priming evaluation and the one at
	// t+dt.
	if slots := ranks * (ranks - 1); passTrees != int64(3*slots) || stats.LETsRecv+stats.BoundaryUsed != 2*slots {
		t.Errorf("pass spans count %d trees over 3 evaluations, the first step's 2 evaluations served %d; want %d pair slots each",
			passTrees, stats.LETsRecv+stats.BoundaryUsed, slots)
	}
	for _, a := range rec.Steps() {
		totalArrivals += a.ArrivalsSeen
	}
	if stats.LETsRecv > 0 && totalArrivals == 0 {
		t.Error("no LET arrivals measured against walk completion")
	}

	// Chrome trace export → parse → analysis.
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := obs.AnalyzeTrace(events)
	if rep.NumRanks != ranks {
		t.Errorf("trace analysis sees %d ranks, want %d", rep.NumRanks, ranks)
	}
	// A step is two evaluations only when it primes t=0; two Steps = 3 evals.
	if len(rep.Steps) != 3 {
		t.Errorf("trace analysis sees %d evaluations, want 3", len(rep.Steps))
	}
	var repPasses, repTrees int64
	for _, sr := range rep.Steps {
		if sr.Straggler < 0 || sr.Straggler >= ranks {
			t.Errorf("eval %d: straggler rank %d out of range", sr.Step, sr.Straggler)
		}
		for _, rr := range sr.Ranks {
			repPasses += int64(rr.Passes)
			repTrees += int64(rr.PassTrees)
		}
	}
	if repPasses != passes || repTrees != passTrees {
		t.Errorf("trace analysis sees %d passes over %d trees, the spans hold %d over %d", repPasses, repTrees, passes, passTrees)
	}
	var repBuf bytes.Buffer
	rep.Format(&repBuf)
	if repBuf.Len() == 0 {
		t.Error("empty trace report")
	}

	// Metrics stream: one cross-rank record per evaluation, folded from the
	// nodes' per-rank records.
	steps := rec.Steps()
	if len(steps) != 3 {
		t.Fatalf("recorded %d step metrics, want 3", len(steps))
	}
	for e, m := range steps {
		if m.Step != e || m.Ranks != ranks || m.N != 4000 {
			t.Errorf("record %d: step %d, %d ranks, n %d; want step %d, %d ranks, n 4000",
				e, m.Step, m.Ranks, m.N, e, ranks)
		}
		if m.Times.Total > m.MaxTimes.Total || m.Times.Total <= 0 {
			t.Errorf("record %d: mean step %v, max %v", e, m.Times.Total, m.MaxTimes.Total)
		}
	}
	slowest := 0
	for i, n := range s.nodes {
		if n.r.stats.Times.Total > s.nodes[slowest].r.stats.Times.Total {
			slowest = i
		}
	}
	if last := steps[2]; last.Straggler != slowest {
		t.Errorf("last record names rank %d the straggler, rank %d had the longest evaluation", last.Straggler, slowest)
	}
	var mbuf bytes.Buffer
	if err := rec.WriteMetricsJSONL(&mbuf); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadMetricsJSONL(&mbuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(steps) {
		t.Errorf("metrics JSONL round-trip: %d records, want %d", len(back), len(steps))
	}
}

// TestTracingDoesNotChangeResults verifies the zero-interference contract:
// single-rank and 8-rank runs must be bitwise identical with tracing on and
// off.
func TestTracingDoesNotChangeResults(t *testing.T) {
	run := func(ranks int, tracing bool) ([]float64, []float64) {
		cfg := Config{Ranks: ranks, Theta: 0.5, Softening: 0.05, WorkersPerRank: 4, Tracing: tracing}
		s, err := New(cfg, plummer(2000, 5))
		if err != nil {
			t.Fatal(err)
		}
		s.Step()
		s.Step()
		acc, pot := s.Accelerations()
		flat := make([]float64, 0, 3*len(acc))
		for _, a := range acc {
			flat = append(flat, a.X, a.Y, a.Z)
		}
		return flat, pot
	}

	for _, ranks := range []int{1, 8} {
		aOff, pOff := run(ranks, false)
		aOn, pOn := run(ranks, true)
		for i := range aOff {
			if aOff[i] != aOn[i] {
				t.Fatalf("%d ranks: acc[%d] differs with tracing: %v vs %v", ranks, i, aOff[i], aOn[i])
			}
		}
		for i := range pOff {
			if pOff[i] != pOn[i] {
				t.Fatalf("%d ranks: pot[%d] differs with tracing: %v vs %v", ranks, i, pOff[i], pOn[i])
			}
		}
	}
}

// Span buffers of 8 overflow within the first evaluation of a traced 2-rank
// run: the metrics stream, the Prometheus exposition and the metrics summary
// all report the drops.
func TestSpansDroppedReported(t *testing.T) {
	s, err := newSimulation(Config{Ranks: 2, Theta: 0.5, Softening: 0.05, WorkersPerRank: 2, Tracing: true}, plummer(2000, 9), 8)
	if err != nil {
		t.Fatal(err)
	}
	rec := s.Recorder()
	s.Step()
	steps := rec.Steps()
	last := steps[len(steps)-1]
	total := rec.Rank(0).Dropped() + rec.Rank(1).Dropped()
	if last.SpansDropped <= 0 || last.SpansDropped > total {
		t.Fatalf("spans_dropped = %d, want in (0, %d]: the ranks' drops at the evaluation's end", last.SpansDropped, total)
	}

	var buf bytes.Buffer
	if err := rec.WriteMetricsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`"spans_dropped":%d`, last.SpansDropped); !strings.Contains(buf.String(), want) {
		t.Errorf("JSONL lacks %s:\n%s", want, buf.String())
	}

	buf.Reset()
	if err := s.Fleet().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := samples[`bonsai_spans_dropped{rank="0"}`] + samples[`bonsai_spans_dropped{rank="1"}`]; got != float64(last.SpansDropped) {
		t.Errorf("bonsai_spans_dropped over the ranks = %v, want %d", got, last.SpansDropped)
	}

	var sum bytes.Buffer
	obs.FormatMetricsSummary(&sum, steps)
	if want := fmt.Sprintf("WARNING: %d spans dropped", last.SpansDropped); !strings.Contains(sum.String(), want) {
		t.Errorf("summary lacks %q:\n%s", want, sum.String())
	}
}
