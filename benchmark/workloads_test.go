package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := inputHash(w.Gen(2048, 11)), inputHash(w.Gen(2048, 11)), inputHash(w.Gen(2048, 12))
		if a != b {
			t.Errorf("%s: seed 11 generated two different inputs", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 11 and 12 generated the same input", w.Name)
		}
	}
}

// TestMiniaturePass runs every workload's tracing-off and traced run at about
// 2048 particles and 3 steps, replay included, so a change to a probed
// function's signature or to the facade fails here and not in the next
// benchmark run. Timing-dependent checks are not asserted at this size.
func TestMiniaturePass(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	size := runSize{Steps: 3, Replays: 1}
	for _, w := range workloads {
		w.N, w.CheckpointEvery = 2048, min(w.CheckpointEvery, 2)
		t.Run(w.Name, func(t *testing.T) {
			m, err := runEndToEnd(w, 5, size, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			assertComplete(t, m, sp.EndToEnd)
			if v := m.vals["force_err_p90"]; v <= 0 || v > 0.01 {
				t.Errorf("force_err_p90 = %g", v)
			}

			trace := filepath.Join(t.TempDir(), w.Name+".trace.json")
			m, err = runPerLayer(w, 5, size, t.TempDir(), trace)
			if err != nil {
				t.Fatal(err)
			}
			assertComplete(t, m, sp.PerLayer)
			if v := m.vals["ladder.replay_pp_ratio"]; v < 0.9 || v > 1.1 {
				t.Errorf("ladder.replay_pp_ratio = %g, want 0.9-1.1", v)
			}
			if v := m.vals["lettree.forced_accepts"]; v != 0 {
				t.Errorf("lettree.forced_accepts = %g", v)
			}
			if v := m.vals["sim.phase_sum_gap"]; v >= 0.02 {
				t.Errorf("sim.phase_sum_gap = %g", v)
			}
			if info, err := os.Stat(trace); err != nil || info.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// assertComplete fails when the run measured a metric the spec does not list
// or missed one it lists.
func assertComplete(t *testing.T, m *metricSet, specs []metricSpec) {
	t.Helper()
	listed := map[string]bool{}
	for _, s := range specs {
		listed[s.Name] = true
		if v, ok := m.vals[s.Name]; !ok || !isFinite(v) {
			t.Errorf("metric %s: measured=%v value=%g", s.Name, ok, v)
		}
	}
	for name := range m.vals {
		if !listed[name] {
			t.Errorf("metric %s is measured but not in BENCHMARK.json", name)
		}
	}
}
