package obs

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bonsai/internal/grav"
)

// Every trace phase has a name of its own: the Chrome trace and tracestats
// tell spans apart by it.
func TestPhaseNamesUnique(t *testing.T) {
	seen := map[string]Phase{}
	for p := Phase(0); p < numPhase; p++ {
		name := p.String()
		if name == "?" || name == "" {
			t.Fatalf("phase %d has no name", p)
		}
		if q, dup := seen[name]; dup {
			t.Errorf("phases %d and %d are both named %q", q, p, name)
		}
		seen[name] = p
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Ranks() != 0 || r.Rank(0) != nil {
		t.Error("nil recorder accessors must report disabled")
	}
	r.AddStep(StepMetrics{})
	if r.Steps() != nil {
		t.Error("nil recorder must have no steps")
	}
	var rr *RankRec
	now := time.Now()
	rr.Span(0, PhaseSortBuild, LaneCompute, 0, now, now, 0)
	rr.Mark(0, PhaseArrive, LaneCompute, now, 0)
	if rr.Spans() != nil || rr.Dropped() != 0 || rr.Since(now) != 0 {
		t.Error("nil RankRec must record nothing")
	}
}

// TestRecorderConcurrent drives each rank's buffer from the compute thread
// and two builders at once, as the gravity phase does. Run under -race this
// is the span recorder's data-race regression test.
func TestRecorderConcurrent(t *testing.T) {
	const ranks, perLane, lanes = 8, 200, 3
	r := New(ranks, ranks*perLane*lanes)
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		rr := r.Rank(rank)
		for w := 0; w < lanes; w++ {
			lane := LaneBuilder
			if w == 0 {
				lane = LaneCompute
			}
			wg.Add(1)
			go func(lane Lane, w int) {
				defer wg.Done()
				for i := 0; i < perLane; i++ {
					t0 := time.Now()
					rr.Span(i, PhaseWalkLocal, lane, w, t0, t0.Add(time.Microsecond), int64(i))
				}
			}(lane, w)
		}
	}
	wg.Wait()
	for rank := 0; rank < ranks; rank++ {
		rr := r.Rank(rank)
		if got := len(rr.Spans()); got != perLane*lanes {
			t.Errorf("rank %d: %d spans, want %d", rank, got, perLane*lanes)
		}
		if rr.Dropped() != 0 {
			t.Errorf("rank %d: dropped %d spans with room to spare", rank, rr.Dropped())
		}
		for _, s := range rr.Spans() {
			if s.End < s.Start {
				t.Fatalf("rank %d: span ends before it starts: %+v", rank, s)
			}
		}
	}
}

// TestRecorderAllocatesRanksOnFirstUse: a worker process builds a recorder
// sized for the whole world and records one rank. It must pay for that rank's
// buffer only, and the rank must record and export as a preallocated one did.
func TestRecorderAllocatesRanksOnFirstUse(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := New(256, 0)
	rr := r.Rank(3)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown >= 4<<20 {
		t.Errorf("New(256, 0) + Rank(3) grew the heap by %d bytes, want < 4 MiB", grown)
	}

	now := time.Now()
	rr.Span(0, PhaseWalkLocal, LaneCompute, 0, now, now.Add(time.Millisecond), 7)
	if r.Rank(3) != rr {
		t.Error("second Rank(3) call returned a different buffer")
	}
	if got := rr.Spans(); len(got) != 1 || got[0].Arg != 7 {
		t.Fatalf("Rank(3) spans = %+v, want the one recorded", got)
	}
	tracks := r.Tracks()
	if len(tracks) != 256 {
		t.Fatalf("Tracks() has %d entries, want one per rank", len(tracks))
	}
	for _, tr := range tracks {
		want := 0
		if tr.Rank == 3 {
			want = 1
		}
		if len(tr.Spans) != want || tr.Dropped != 0 {
			t.Errorf("rank %d track: %d spans, %d dropped, want %d and 0", tr.Rank, len(tr.Spans), tr.Dropped, want)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep := AnalyzeTrace(events); rep.NumRanks != 1 {
		t.Errorf("exported trace shows %d ranks, want the one that recorded", rep.NumRanks)
	}
}

func TestRecorderOverflowDropsAndCounts(t *testing.T) {
	r := New(1, 8)
	rr := r.Rank(0)
	now := time.Now()
	for i := 0; i < 20; i++ {
		rr.Span(0, PhaseSortBuild, LaneCompute, 0, now, now, int64(i))
	}
	if got := len(rr.Spans()); got != 8 {
		t.Errorf("kept %d spans, want capacity 8", got)
	}
	if got := rr.Dropped(); got != 12 {
		t.Errorf("Dropped() = %d, want 12", got)
	}
}

// TestHistBuckets pins the arrival chart's exact rendering: bucket bounds
// (mirrored below zero, zero on its own), duration and count units, bar
// scaling, and the empty histogram.
func TestHistBuckets(t *testing.T) {
	for _, tc := range []struct {
		name, unit string
		samples    []int64
		want       string
	}{
		{"LET arrival offset vs local-walk completion", "ns", []int64{-3000, 0, 1, 1, 5, 2000000},
			"LET arrival offset vs local-walk completion (6 samples, mean 332.83µs):\n" +
				"  [     -4.10µs,      -2.05µs) #################### 1\n" +
				"  [         0ns,          1ns) #################### 1\n" +
				"  [         1ns,          2ns) ######################################## 2\n" +
				"  [         4ns,          8ns) #################### 1\n" +
				"  [      1.05ms,       2.10ms) #################### 1\n"},
		{"interaction list", "count", []int64{-2, 0, 3, 3, 17, 1000, 1000, 1000},
			"interaction list (8 samples, mean 377.6):\n" +
				"  [          -4,           -1) ############# 1\n" +
				"  [           0,            1) ############# 1\n" +
				"  [           2,            4) ########################## 2\n" +
				"  [          16,           32) ############# 1\n" +
				"  [         512,         1024) ######################################## 3\n"},
		{"empty", "ns", nil, "empty (0 samples, mean 0ns):\n"},
	} {
		h := Hist{Name: tc.name, Unit: tc.unit}
		for _, v := range tc.samples {
			h.Observe(v)
		}
		if got := h.Count(); got != int64(len(tc.samples)) {
			t.Errorf("%s: Count() = %d, want %d", tc.name, got, len(tc.samples))
		}
		var buf bytes.Buffer
		h.Format(&buf)
		if got := buf.String(); got != tc.want {
			t.Errorf("%s: Format =\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	r := New(2, 64)
	base := time.Now()
	r.Rank(0).Span(0, PhaseWalkLocal, LaneCompute, 0, base, base.Add(100*time.Microsecond), 4)
	r.Rank(0).Mark(0, PhaseArrive, LaneCompute, base.Add(40*time.Microsecond), 1)
	r.Rank(1).Span(0, PhaseLETBuild, LaneBuilder, 3, base, base.Add(10*time.Microsecond), 0)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}

	var procs, walks, instants, builders int
	for _, ev := range events {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			procs++
		case ev.Ph == "X" && ev.Name == PhaseWalkLocal.String():
			walks++
			if ev.Dur <= 0 {
				t.Errorf("walk span has non-positive duration %v", ev.Dur)
			}
		case ev.Ph == "i" && ev.Name == PhaseArrive.String():
			instants++
			if ev.Scope != "t" {
				t.Errorf("instant scope %q, want thread scope", ev.Scope)
			}
		case ev.Ph == "X" && ev.Name == PhaseLETBuild.String():
			builders++
			if ev.TID != 1+3 {
				t.Errorf("builder worker 3 mapped to tid %d, want 4", ev.TID)
			}
		}
	}
	if procs != 2 || walks != 1 || instants != 1 || builders != 1 {
		t.Errorf("events: procs=%d walks=%d instants=%d builders=%d", procs, walks, instants, builders)
	}

	var nilRec *Recorder
	if err := nilRec.WriteChromeTrace(&buf); err == nil {
		t.Error("nil recorder WriteChromeTrace must error")
	}
}

func TestAnalyzeTraceStraggler(t *testing.T) {
	// Synthetic evaluation: rank 0 finishes its local walk at 100 µs with one
	// hidden (t=50) and one late (t=150) arrival; rank 1 is the straggler,
	// busy until 400 µs.
	mk := func(name, ph string, ts, dur float64, pid int) TraceEvent {
		return TraceEvent{Name: name, Ph: ph, TS: ts, Dur: dur, PID: pid,
			Args: map[string]any{"step": float64(0), "arg": float64(1)}}
	}
	events := []TraceEvent{
		mk(PhaseWalkLocal.String(), "X", 0, 100, 0),
		mk(PhaseArrive.String(), "i", 50, 0, 0),
		mk(PhaseArrive.String(), "i", 150, 0, 0),
		mk(PhaseWalkLocal.String(), "X", 0, 400, 1),
		{Name: "process_name", Ph: "M", PID: 0}, // metadata must be ignored
	}
	rep := AnalyzeTrace(events)
	if rep.NumRanks != 2 || len(rep.Steps) != 1 {
		t.Fatalf("got %d ranks, %d steps; want 2, 1", rep.NumRanks, len(rep.Steps))
	}
	sr := rep.Steps[0]
	if sr.Straggler != 1 {
		t.Errorf("straggler = rank %d, want 1", sr.Straggler)
	}
	r0 := sr.Ranks[0]
	if r0.Hidden != 1 || r0.Late != 1 {
		t.Errorf("rank 0: hidden=%d late=%d, want 1 and 1", r0.Hidden, r0.Late)
	}
	var buf bytes.Buffer
	rep.Format(&buf)
	out := buf.String()
	if !strings.Contains(out, "straggler rank 1") {
		t.Errorf("report does not name the straggler:\n%s", out)
	}
	if !strings.Contains(out, "1 hidden, 1 late") {
		t.Errorf("report does not classify the arrivals:\n%s", out)
	}
}

// TestAnalyzeTraceArrivalWithoutWalkEnd: a rank whose evaluation kept an
// arrival but lost its local-walk spans (a truncated trace, a full span
// buffer) has nothing to measure the arrival against. It is neither hidden
// nor late, and the report says so instead of printing NaN offsets.
func TestAnalyzeTraceArrivalWithoutWalkEnd(t *testing.T) {
	r := New(1, 16)
	base := time.Now()
	r.Rank(0).Span(0, PhaseSortBuild, LaneCompute, 0, base, base.Add(100*time.Microsecond), 0)
	r.Rank(0).Mark(0, PhaseArrive, LaneCompute, base.Add(50*time.Microsecond), 1)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeTrace(events)
	if len(rep.Steps) != 1 || len(rep.Steps[0].Ranks) != 1 {
		t.Fatalf("got %d evaluations, want 1 with one rank", len(rep.Steps))
	}
	if rr := rep.Steps[0].Ranks[0]; rr.Hidden != 0 || rr.Late != 0 || rr.NoWalkEnd != 1 {
		t.Errorf("hidden=%d late=%d no-walk-end=%d, want 0, 0, 1", rr.Hidden, rr.Late, rr.NoWalkEnd)
	}
	buf.Reset()
	rep.Format(&buf)
	out := buf.String()
	if strings.Contains(out, "NaN") || !strings.Contains(out, "no local-walk end") {
		t.Errorf("report must name the unmeasured arrival without NaN:\n%s", out)
	}
}

func TestMetricsJSONLRoundTrip(t *testing.T) {
	r := New(1, 8)
	ms := time.Millisecond
	want := []StepMetrics{
		{Step: 0, Ranks: 4, N: 1000, Straggler: 3, KernelISA: "x",
			Times:    PhaseTimes{GravLocal: ms, Other: ms / 2, Total: 1500 * time.Microsecond},
			MaxTimes: PhaseTimes{GravLocal: 2 * ms, Total: 2 * ms},
			Stats:    grav.Stats{PP: 1e5, PC: 2e4}, LETsRecv: 8, LETsOverlapped: 6, ArrivalsSeen: 8,
			WorstArrival: -250 * time.Microsecond, SpansDropped: 3},
		{Step: 1, Ranks: 4, N: 1000, Straggler: 2,
			Times:    PhaseTimes{Total: 1400 * time.Microsecond},
			MaxTimes: PhaseTimes{Total: 1900 * time.Microsecond},
			Substep:  3, Substeps: 1, Rebuilds: 1, ActiveN: 250, TotalN: 1000,
			RungPop: []int{700, 200, 100}},
	}
	for i := range want {
		want[i].Derive()
	}
	for _, m := range want {
		r.AddStep(m)
	}
	var buf bytes.Buffer
	if err := r.WriteMetricsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMetricsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round-tripped %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}

	var sum bytes.Buffer
	FormatMetricsSummary(&sum, got)
	if !strings.Contains(sum.String(), "straggler") {
		t.Errorf("summary missing straggler info:\n%s", sum.String())
	}
}

func TestReadMetricsJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadMetricsJSONL(strings.NewReader("{\"step\":0}\nnot json\n")); err == nil {
		t.Error("expected an error on a malformed line")
	}
}
