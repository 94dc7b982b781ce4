package obs

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"bonsai/internal/grav"
)

// A SIGKILLed worker leaves a JSONL file cut mid-line: the reader must return
// the complete prefix, not an error.
func TestReadMetricsJSONLTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	full := []StepMetrics{
		{Step: 0, Ranks: 2, Times: PhaseTimes{Total: 1 * time.Millisecond}},
		{Step: 1, Ranks: 2, Times: PhaseTimes{Total: 2 * time.Millisecond}},
		{Step: 2, Ranks: 2, Times: PhaseTimes{Total: 3 * time.Millisecond}},
	}
	for i := range full {
		full[i].Derive()
	}
	if err := WriteStepMetricsJSONL(&buf, full); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Cut inside the final line at several depths.
	lastLine := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	for _, cut := range []int{lastLine + 1, lastLine + 10, len(data) - 2} {
		got, err := ReadMetricsJSONL(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(got) != 2 || !reflect.DeepEqual(got[0], full[0]) || !reflect.DeepEqual(got[1], full[1]) {
			t.Fatalf("cut at %d: got %d records, want the 2-record prefix", cut, len(got))
		}
	}

	// A final line that is complete JSON but missing its newline still counts.
	got, err := ReadMetricsJSONL(bytes.NewReader(data[:len(data)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("newline-less final record dropped: got %d records, want 3", len(got))
	}

	// A malformed line that WAS fully written is corruption, not truncation.
	if _, err := ReadMetricsJSONL(strings.NewReader("{\"step\":0}\ngarbage\n{\"step\":1}\n")); err == nil {
		t.Error("fully-written garbage line must error")
	}
}

// Every byte-level prefix of a valid trace must parse to a prefix of its
// event list (or error for prefixes too short to be a trace object) — the
// exact mid-write artifact a killed worker leaves.
func TestParseChromeTraceTruncated(t *testing.T) {
	r := New(2, 16)
	for rank := 0; rank < 2; rank++ {
		rr := r.Rank(rank)
		for step := 0; step < 3; step++ {
			rr.push(step, PhaseWalkLocal, LaneCompute, 0, int64(step*1000), int64(step*1000+500), 0)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	full, err := ParseChromeTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("empty full parse")
	}

	for cut := 0; cut <= len(data); cut++ {
		got, err := ParseChromeTrace(bytes.NewReader(data[:cut]))
		if err != nil {
			continue // too short to even be a trace object: fine
		}
		if len(got) > len(full) {
			t.Fatalf("cut at %d: %d events, more than the full %d", cut, len(got), len(full))
		}
		for i := range got {
			if got[i].Name != full[i].Name || got[i].TS != full[i].TS || got[i].PID != full[i].PID {
				t.Fatalf("cut at %d: event %d is not a prefix of the full parse", cut, i)
			}
		}
		if cut == len(data) && len(got) != len(full) {
			t.Fatalf("full input parsed %d events, want %d", len(got), len(full))
		}
	}

	// Outright garbage still errors.
	if _, err := ParseChromeTrace(strings.NewReader("not json at all")); err == nil {
		t.Error("garbage input must error")
	}
	if _, err := ParseChromeTrace(strings.NewReader(`[1,2,3]`)); err == nil {
		t.Error("non-object input must error")
	}
}

// rankRecord builds the per-rank record of one evaluation the way a rank
// closes it: step time total, of which walk in the local walk, and pc
// particle-cell interactions.
func rankRecord(step, rank, ranks int, total, walk time.Duration, pc uint64) StepMetrics {
	m := StepMetrics{Step: step, Rank: rank, Ranks: ranks, N: 500, KernelISA: "x", Stats: grav.Stats{PC: pc}}
	m.Times.GravLocal = walk
	m.EndEval(total)
	return m
}

// FoldRanks over one evaluation's per-rank records: sums, means, the slowest
// rank, and the ratios derived from the folded values — the fold a run's fleet
// view applies, in-process and to records gathered over the wire alike.
func TestFoldRanksAcrossRanks(t *testing.T) {
	ms := time.Millisecond
	perRank := []StepMetrics{
		rankRecord(0, 0, 2, 10*ms, 8*ms, 1e6),
		rankRecord(0, 1, 2, 30*ms, 24*ms, 1e6),
	}
	perRank[0].LETsRecv, perRank[0].LETsOverlapped, perRank[0].ArrivalsSeen, perRank[0].WorstArrival = 1, 1, 1, -2*ms
	perRank[1].LETsRecv, perRank[1].ArrivalsSeen, perRank[1].WorstArrival = 1, 1, 5*ms
	var m StepMetrics
	FoldRanks(&m, perRank)
	if m.Ranks != 2 || m.N != 1000 {
		t.Errorf("ranks/N = %d/%d, want 2/1000", m.Ranks, m.N)
	}
	if m.Times.Total != 20*ms || m.MaxTimes.Total != 30*ms || m.Straggler != 1 {
		t.Errorf("mean/max/straggler = %v/%v/%d, want 20ms/30ms/1", m.Times.Total, m.MaxTimes.Total, m.Straggler)
	}
	if m.ImbalancePct != 50 {
		t.Errorf("imbalance = %v%%, want 50", m.ImbalancePct)
	}
	if m.LETsRecv != 2 || m.LETsOverlapped != 1 || m.OverlapFrac != 0.5 {
		t.Errorf("LET counters = %d/%d/%v, want 2/1/0.5", m.LETsRecv, m.LETsOverlapped, m.OverlapFrac)
	}
	if m.WorstArrival != 5*ms || m.ArrivalsSeen != 2 {
		t.Errorf("arrivals = %v/%d, want 5ms/2", m.WorstArrival, m.ArrivalsSeen)
	}
	// The walk rate is the total flop count over the mean per-rank walk time
	// (2·65e6 flop / 16 ms), the rate bonsai.StepStats has always
	// reported; it is not the sum of the per-rank rates (65e6/8ms + 65e6/24ms).
	if want := 2 * 65e6 / 16e-3 / 1e9; math.Abs(m.WalkGflops-want) > 1e-12 {
		t.Errorf("walk rate = %v, want %v Gflop/s", m.WalkGflops, want)
	}
	if m.Times.GravLocal != 16*ms {
		t.Errorf("grav_local = %v, want the 16 ms mean", m.Times.GravLocal)
	}

	// One imbalanced evaluation — ranks with (4 Gflop, 1 s) and (2 Gflop, 2 s)
	// of walk — read through the JSONL stream, as rank 0 receives it, and
	// folded gives the same rate as the in-process fold the public StepStats
	// reads: 6 Gflop over the 1.5 s mean walk, 4 Gflop/s, not the 5 Gflop/s sum
	// of the per-rank rates.
	const pc = 30769231 // ≈ 2e9 / grav.FlopsPC: the interactions of 2 Gflop
	recs := []StepMetrics{
		rankRecord(0, 0, 2, 2*time.Second, time.Second, 2*pc),
		rankRecord(0, 1, 2, 2*time.Second, 2*time.Second, pc),
	}
	var buf bytes.Buffer
	if err := WriteStepMetricsJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadMetricsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var viaJSONL, inProcess StepMetrics
	FoldRanks(&viaJSONL, decoded)
	FoldRanks(&inProcess, recs)
	if viaJSONL.WalkGflops != inProcess.WalkGflops {
		t.Errorf("JSONL fold reads %v Gflop/s, the in-process fold %v", viaJSONL.WalkGflops, inProcess.WalkGflops)
	}
	if want := 3 * float64(pc) * grav.FlopsPC / 1.5 / 1e9; math.Abs(inProcess.WalkGflops-want) > 1e-12 {
		t.Errorf("walk rate = %v Gflop/s, want %v", inProcess.WalkGflops, want)
	}
}
