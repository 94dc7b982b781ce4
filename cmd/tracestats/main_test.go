package main

import (
	"math"
	"strings"
	"testing"

	"bonsai/internal/obs"
)

// The two-rank fixture: rank 0 is busy 100µs starting at t=100µs with one
// hidden LET arrival; rank 1 is busy 400µs starting at t=200µs with one late
// arrival. Known straggler: rank 1. Known start skew: 100µs.
func loadFixture(t *testing.T) obs.TraceReport {
	t.Helper()
	events, err := readTraces([]string{"testdata/rank0.json", "testdata/rank1.json"})
	if err != nil {
		t.Fatal(err)
	}
	return obs.AnalyzeTrace(events)
}

func TestCombinedTracesFindStraggler(t *testing.T) {
	rep := loadFixture(t)
	if rep.NumRanks != 2 {
		t.Fatalf("NumRanks = %d, want 2", rep.NumRanks)
	}
	if len(rep.Steps) != 1 {
		t.Fatalf("got %d evaluations, want 1", len(rep.Steps))
	}
	sr := rep.Steps[0]
	if sr.Straggler != 1 {
		t.Errorf("straggler = rank %d, want rank 1", sr.Straggler)
	}
	if math.Abs(sr.MaxBusy-400) > 1e-9 {
		t.Errorf("MaxBusy = %v µs, want 400", sr.MaxBusy)
	}
	for _, rr := range sr.Ranks {
		switch rr.Rank {
		case 0:
			if rr.Hidden != 1 || rr.Late != 0 {
				t.Errorf("rank 0: hidden=%d late=%d, want 1/0", rr.Hidden, rr.Late)
			}
		case 1:
			if rr.Hidden != 0 || rr.Late != 1 {
				t.Errorf("rank 1: hidden=%d late=%d, want 0/1", rr.Hidden, rr.Late)
			}
		}
	}
}

func TestCombinedTracesReportCrossRankSkew(t *testing.T) {
	rep := loadFixture(t)
	if math.Abs(rep.Steps[0].StartSkewUS-100) > 1e-9 {
		t.Errorf("StartSkewUS = %v, want 100", rep.Steps[0].StartSkewUS)
	}
	if math.Abs(rep.MaxStartSkewUS-100) > 1e-9 {
		t.Errorf("MaxStartSkewUS = %v, want 100", rep.MaxStartSkewUS)
	}
	var sb strings.Builder
	rep.Format(&sb)
	if !strings.Contains(sb.String(), "cross-rank start skew") {
		t.Errorf("Format output does not report cross-rank skew:\n%s", sb.String())
	}
}

func TestReadTracesMissingFile(t *testing.T) {
	if _, err := readTraces([]string{"testdata/does-not-exist.json"}); err == nil {
		t.Fatal("want error for a missing trace file")
	}
}

// A snapshot whose clock-sync residual exceeds 1 ms on one rank gets one
// WARNING line naming that rank; residuals under the bound get none.
func TestPromReportWarnsOnClockResidual(t *testing.T) {
	var sb strings.Builder
	promReport(&sb, map[string]float64{
		`bonsai_clock_uncertainty_seconds{rank="0"}`: 0,
		`bonsai_clock_uncertainty_seconds{rank="1"}`: 4e-5,
		`bonsai_clock_uncertainty_seconds{rank="2"}`: 2.5e-3,
		`bonsai_ranks`: 3,
	})
	out := sb.String()
	if !strings.Contains(out, "4 samples, format ok") {
		t.Errorf("report lacks the sample count:\n%s", out)
	}
	if n := strings.Count(out, "WARNING: clock-sync residual"); n != 1 ||
		!strings.Contains(out, `rank="2"`) || !strings.Contains(out, "2.5ms exceeds 1 ms") {
		t.Errorf("want one warning, for rank 2 at 2.5ms:\n%s", out)
	}
}
