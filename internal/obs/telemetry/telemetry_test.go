package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bonsai/internal/mpi"
	"bonsai/internal/obs"
)

// stepRecord builds one per-rank step record the way sim.Node emits them.
func stepRecord(step, rank, ranks int, stepMS float64) obs.StepMetrics {
	m := obs.StepMetrics{Step: step, Rank: rank, Ranks: ranks, N: 1000, KernelISA: "test-isa"}
	m.Times.GravLocal = time.Duration(stepMS * 0.8 * 1e6)
	m.EndEval(time.Duration(stepMS * 1e6))
	return m
}

// sockWorld builds an all-local unix-socket world: every rank in this
// process, every inter-rank byte through a real socket.
func sockWorld(t *testing.T, size int) *mpi.World {
	t.Helper()
	dir := t.TempDir()
	addrs, local := make([]string, size), make([]int, size)
	for r := range addrs {
		addrs[r], local[r] = filepath.Join(dir, fmt.Sprintf("r%d.sock", r)), r
	}
	w, err := mpi.NewSocketWorld(size, mpi.SocketConfig{Network: "unix", Addrs: addrs, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// The clock estimate over MPI: two recorders whose epochs are ~60ms apart,
// like forked workers', record a span at the SAME wall-clock instant; after
// one traced step and the run-end gather, both spans land within 1ms of each
// other on rank 0's merged timeline, with a reported uncertainty under 1ms.
// The step's records reach rank 0's fleet view folded, and its Prometheus
// view carries every rank's gauges, the clock rows and the pair bytes.
func TestClockSyncAlignsStaggeredClocks(t *testing.T) {
	for _, tc := range []struct {
		name  string
		world func(t *testing.T) *mpi.World
	}{
		{"chan", func(*testing.T) *mpi.World { return mpi.NewWorld(2) }},
		{"unix", func(t *testing.T) *mpi.World { return sockWorld(t, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const ranks = 2
			w := tc.world(t)
			w.MeterPairs()
			rec0 := obs.New(ranks, 0)
			time.Sleep(60 * time.Millisecond) // stagger the epochs like forked workers
			recs := []*obs.Recorder{rec0, obs.New(ranks, 0)}
			start := time.Now()
			for rank, rec := range recs {
				rec.Rank(rank).Span(0, obs.PhaseWalkLocal, obs.LaneCompute, 0, start, start.Add(2*time.Millisecond), 0)
			}

			fleet := NewFleet(rec0, ranks)
			var end *End
			var wg sync.WaitGroup
			for rank := range recs {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					c := w.Comm(rank)
					var f *Fleet
					if rank == 0 {
						f = fleet
					}
					step := []obs.StepMetrics{stepRecord(0, rank, ranks, 5), stepRecord(1, rank, ranks, 5)}
					if err := GatherStep(c, f, step); err != nil {
						t.Error(err)
					}
					e, err := GatherEnd(c, recs[rank])
					if err != nil {
						t.Error(err)
					}
					if rank == 0 {
						end = e
					} else if e != nil {
						t.Error("GatherEnd returned the run-end state off rank 0")
					}
				}(rank)
			}
			wg.Wait()
			if end == nil {
				t.Fatal("rank 0 holds no run-end state")
			}

			if stagger := time.Duration(end.Offsets[1] - end.Offsets[0]); stagger < 40*time.Millisecond || stagger > 100*time.Millisecond {
				t.Errorf("offset difference = %v, want ~60ms epoch stagger", stagger)
			}
			if unc := end.MaxUncertainty(); unc >= time.Millisecond {
				t.Errorf("max clock uncertainty = %v, want < 1ms", unc)
			}
			var buf bytes.Buffer
			if err := end.WriteTrace(&buf); err != nil {
				t.Fatal(err)
			}
			events, err := obs.ParseChromeTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}
			rep := obs.AnalyzeTrace(events)
			if rep.NumRanks != ranks {
				t.Fatalf("merged trace has %d ranks, want %d", rep.NumRanks, ranks)
			}
			if rep.MaxStartSkewUS >= 1000 {
				t.Errorf("aligned start skew = %.1f µs, want < 1000", rep.MaxStartSkewUS)
			}

			steps := rec0.Steps()
			if len(steps) != 2 || steps[0].Step != 0 || steps[1].Step != 1 || steps[1].Ranks != ranks || steps[1].N != ranks*1000 {
				t.Fatalf("fleet stream = %+v, want evaluations 0 and 1 folded over %d ranks", steps, ranks)
			}

			fleet.SetEnd(end)
			buf.Reset()
			if err := fleet.WriteProm(&buf); err != nil {
				t.Fatal(err)
			}
			samples, err := ParseProm(&buf)
			if err != nil {
				t.Fatalf("exposition does not parse: %v", err)
			}
			for _, key := range []string{
				`bonsai_step{rank="0"}`, `bonsai_step{rank="1"}`,
				`bonsai_clock_offset_seconds{rank="1"}`, `bonsai_clock_uncertainty_seconds{rank="1"}`,
				`bonsai_kernel_isa{rank="1",isa="test-isa"}`,
				`bonsai_pair_bytes{from="1",to="0"}`,
			} {
				if _, ok := samples[key]; !ok {
					t.Errorf("exposition is missing %s\nhave: %v", key, PromKeys(samples))
				}
			}
			if got := samples["bonsai_ranks"]; got != ranks {
				t.Errorf("bonsai_ranks = %v, want %d", got, ranks)
			}
		})
	}
}

// A rank that ran a different number of evaluations fails rank 0's gather by
// name instead of folding records of different evaluations together.
func TestGatherStepRejectsMismatchedEvaluations(t *testing.T) {
	w := mpi.NewWorld(2)
	fleet := NewFleet(obs.New(2, 0), 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := range errs {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			step := []obs.StepMetrics{stepRecord(0, rank, 2, 5)}
			var f *Fleet
			if rank == 0 {
				f = fleet
			} else {
				step = append(step, stepRecord(1, rank, 2, 5))
			}
			errs[rank] = GatherStep(w.Comm(rank), f, step)
		}(rank)
	}
	wg.Wait()
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "rank 1 reports 2 evaluations") || errs[1] != nil {
		t.Errorf("errors = %v, want rank 0 to name rank 1's extra evaluation", errs)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"bonsai_up\n",                    // no value
		"bonsai_up notanumber\n",         // bad value
		"# COMMENT something\n",          // unknown comment form
		"1bad_name 1\n",                  // invalid metric name
		`bonsai_up{rank=0} 1` + "\n",     // unquoted label value
		`bonsai_up{rank="0" 1` + "\n",    // unterminated label set
		`bonsai_up{="x"} 1` + "\n",       // empty label name
		`bonsai_up{a="1"b="2"} 1` + "\n", /* missing comma */
	} {
		if _, err := ParseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseProm accepted %q", bad)
		}
	}
	good := "# HELP x_y help text\n# TYPE x_y gauge\nx_y{a=\"b\\\"c\",d=\"e\"} 4.5\nplain 1\n"
	samples, err := ParseProm(strings.NewReader(good))
	if err != nil {
		t.Fatalf("ParseProm rejected valid input: %v", err)
	}
	if len(samples) != 2 || samples["plain"] != 1 {
		t.Errorf("samples = %v", samples)
	}
}

// Every gauge row of obs.Schema reaches the fleet view's exposition under the
// family and labels the exposition has always used, and it parses.
func TestEveryGaugeRowExported(t *testing.T) {
	m := stepRecord(3, 0, 1, 5)
	m.LETsRecv, m.LETsOverlapped, m.SpansDropped = 4, 3, 7
	m.ActiveN, m.TotalN, m.RungPop = 250, 1000, []int{700, 200, 100}
	m.Derive()
	fleet := NewFleet(obs.New(1, 0), 1)
	fleet.Observe([]obs.StepMetrics{m})
	var buf bytes.Buffer
	if err := fleet.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProm(&buf)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}

	want := map[string]float64{
		`bonsai_step{rank="0"}`:                                  3,
		`bonsai_step_seconds{rank="0"}`:                          0.005,
		`bonsai_phase_seconds{rank="0",phase="sort_build"}`:      0,
		`bonsai_phase_seconds{rank="0",phase="domain"}`:          0,
		`bonsai_phase_seconds{rank="0",phase="tree_props"}`:      0,
		`bonsai_phase_seconds{rank="0",phase="grav_local"}`:      0.004,
		`bonsai_phase_seconds{rank="0",phase="grav_let"}`:        0,
		`bonsai_phase_seconds{rank="0",phase="other"}`:           0.001,
		`bonsai_walk_gflops{rank="0"}`:                           0,
		`bonsai_app_gflops{rank="0"}`:                            0,
		`bonsai_overlap_frac{rank="0"}`:                          0.75,
		`bonsai_lets_recv{rank="0"}`:                             4,
		`bonsai_active_frac{rank="0"}`:                           0.25,
		`bonsai_rung_population{rank="0",rung="0"}`:              700,
		`bonsai_rung_population{rank="0",rung="2"}`:              100,
		`bonsai_kernel_isa{rank="0",isa="test-isa"}`:             1,
		`bonsai_spans_dropped{rank="0"}`:                         7,
		`bonsai_phase_seconds{rank="0",phase="non_hidden_comm"}`: 0,
	}
	families := map[string]bool{}
	m.EachGauge(func(family, _, _, _ string, _ float64) { families[family] = true })
	for i := range obs.Schema {
		if g := obs.Schema[i].Gauge; g != "" && !families[g] {
			t.Errorf("gauge row %s (%s) exports no sample", obs.Schema[i].Key, g)
		}
	}
	for key, v := range want {
		if got, ok := samples[key]; !ok {
			t.Errorf("exposition is missing %s\nhave: %v", key, PromKeys(samples))
		} else if math.Abs(got-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", key, got, v)
		}
	}
}
