package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestResultFileRoundTrip(t *testing.T) {
	in := resultFile{
		Host: hostBlock{CPU: "cpu", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go", KernelISA: "scalar", Commit: "c"},
		Runs: []runResult{{
			Workload: "mw_p1", Seed: 3, Seconds: 10, Traced: false,
			outcome: outcome{Correct: true, Attempted: 5, Metrics: map[string]metricValue{
				"step_s": {Value: 0.07330682351234, Unit: "s"},
			}},
		}, {
			Workload: "mw_p1", Seed: 3, Seconds: 10,
			outcome: outcome{Attempted: 5, Failed: 1, Metrics: map[string]metricValue{"step_s": {Value: 0.08, Unit: "s"}}},
		}},
	}
	path := filepath.Join(t.TempDir(), "sub", "r.json")
	if err := in.write(path); err != nil {
		t.Fatal(err)
	}
	out, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the file:\n in %+v\nout %+v", in, out)
	}
	if got := out.values("mw_p1", "step_s"); !reflect.DeepEqual(got, []float64{0.07330682351234, 0.08}) {
		t.Errorf("values = %v", got)
	}
}

func TestOutcomeCountsUnmeasuredAndUnlistedMetrics(t *testing.T) {
	specs := []metricSpec{{Name: "a", Unit: "s"}, {Name: "b", Unit: "1"}}
	m := newMetricSet()
	m.set("a", 1.5)
	m.set("stray", 2)
	oc := m.outcome(specs)
	if oc.Correct || oc.Failed != 2 || oc.Attempted != 3 {
		t.Errorf("outcome = %+v, want 2 of 3 failed (b unmeasured, stray unlisted)", oc)
	}
	if oc.Metrics["a"] != (metricValue{1.5, "s"}) || len(oc.Metrics) != 2 {
		t.Errorf("metrics = %v", oc.Metrics)
	}
}

func TestSpecIsWellFormed(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		if seen[s.Name] || s.Unit == "" || (s.Better != "lower" && s.Better != "higher") {
			t.Errorf("metric %+v: duplicate name, empty unit or bad direction", s)
		}
		seen[s.Name] = true
	}
	for _, s := range sp.EndToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if !seen["setup_s"] || sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("setup_s listed: %v, run_seconds %d", seen["setup_s"], sp.RunSeconds)
	}
}
