package obs

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"

	"bonsai/internal/grav"
)

// setRow stores v in a row's field: v itself for counts, v ms for times, the
// decimal string for the ISA, a one-rung population for RungPop.
func setRow(r *Metric, m *StepMetrics, v int) {
	switch p := r.field(m).(type) {
	case *int:
		*p = v
	case *int64:
		*p = int64(v)
	case *uint64:
		*p = uint64(v)
	case *time.Duration:
		*p = time.Duration(v) * time.Millisecond
	case *string:
		*p = strconv.Itoa(v)
	case *[]int:
		*p = []int{v}
	}
}

// schemaInput is the per-rank, per-evaluation record the schema tests fold:
// every folded row holds 10·(rank+1) + eval + 1, the identity rows name the
// rank, and flags (Unit "flag") are 1 so the evaluation record stays valid.
func schemaInput(rank, eval, ranks int) StepMetrics {
	var m StepMetrics
	for i := range Schema {
		r := &Schema[i]
		switch {
		case r.Ranks == Derived || r.Ranks == Ident:
		case r.Unit == "flag":
			setRow(r, &m, 1)
		default:
			setRow(r, &m, 10*(rank+1)+eval+1)
		}
	}
	m.Rank, m.Ranks, m.Straggler = rank, ranks, rank
	m.Derive()
	return m
}

// Every row survives the JSONL stream: a record holding a distinct value in
// every field re-reads equal to itself.
func TestSchemaRoundTrip(t *testing.T) {
	in := schemaInput(1, 0, 3)
	var buf bytes.Buffer
	if err := WriteStepMetricsJSONL(&buf, []StepMetrics{in}); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMetricsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("read %d records, want 1", len(out))
	}
	for i := range Schema {
		r := &Schema[i]
		if got, want := r.field(&out[0]), r.field(&in); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round-tripped to %v, want %v", r.Key, reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem())
		}
	}
}

// Both fold rules of every row against hand-computed values: 3 unequal ranks
// × 2 evaluations of schemaInput, folded over each rank's evaluations
// (AddEval), then over the ranks (FoldRanks). Rank r's evaluations hold
// a+1 and a+2 (a = 10, 20, 30), so an evaluation Sum is 2a+3 (23, 43, 63)
// and Last/Max is a+2 (12, 22, 32); over ranks those give Sum 129 or 66,
// Mean 43, Max 63 or 32, and Same the first rank's 23 or 12.
func TestSchemaFolds(t *testing.T) {
	const ranks = 3
	steps := make([]StepMetrics, ranks)
	for rk := range steps {
		for e := 0; e < 2; e++ {
			in := schemaInput(rk, e, ranks)
			steps[rk].AddEval(&in)
		}
	}
	var got StepMetrics
	FoldRanks(&got, steps)

	flops := 129.0*23 + 129*65 // pp, pc 129 each, at the §VI.A counts
	want := map[string]float64{
		"step": 12, "rank": 0, "ranks": 3, "straggler_rank": 2, "n": 66,
		"mean_step_ms": 43, "max_step_ms": 63, "imbalance_pct": (63.0/43 - 1) * 100,
		"pp": 129, "pc": 129, "pp_per_particle": 129.0 / 66, "pc_per_particle": 129.0 / 66,
		"walk_gflops": flops / 86e-3 / 1e9, "app_gflops": flops / 63e-3 / 1e9,
		"lets_sent": 129, "lets_recv": 129, "lets_overlapped": 129, "overlap_frac": 1,
		"boundary_used": 129, "boundary_sent": 129, "bytes_sent": 129,
		"recv_idle_ms": 43, "arrivals_seen": 129, "worst_arrival_ms": 32, "spans_dropped": 66,
		"substep": 12, "substeps": 23, "tree_rebuilt": 2, "active_n": 23, "total_n": 23, "active_frac": 1,
	}
	for _, name := range rowNames {
		want[name+"_ms"] = 43
		want["max_"+name+"_ms"] = 63
	}
	for i := range Schema {
		r := &Schema[i]
		switch p := r.field(&got).(type) {
		case *string:
			if *p != "12" {
				t.Errorf("%s = %q, want %q", r.Key, *p, "12")
			}
		case *[]int:
			if !reflect.DeepEqual(*p, []int{12}) {
				t.Errorf("%s = %v, want [12]", r.Key, *p)
			}
		default:
			w, ok := want[r.Key]
			if !ok {
				t.Errorf("%s: no hand-computed value", r.Key)
				continue
			}
			v := number(p)
			if r.Unit == "ms" {
				v *= 1e3
			}
			if math.Abs(v-w) > 1e-12*math.Max(1, math.Abs(w)) {
				t.Errorf("%s = %v, want %v", r.Key, v, w)
			}
		}
	}
}

// Flops follows the interaction counts on every path a record takes: closing
// an evaluation, folding evaluations and ranks, and the JSONL stream, which
// carries pp and pc but no flops key.
func TestFlopsFollowsCounts(t *testing.T) {
	check := func(stage string, m *StepMetrics) {
		t.Helper()
		if want := float64(m.PP)*grav.FlopsPP + float64(m.PC)*grav.FlopsPC; m.Flops != want || want == 0 {
			t.Errorf("%s: Flops %v, want %v (pp %d, pc %d)", stage, m.Flops, want, m.PP, m.PC)
		}
	}
	recs := make([]StepMetrics, 2)
	for rk := range recs {
		for e := range 2 {
			ev := StepMetrics{Rank: rk, Ranks: 2, Stats: grav.Stats{PP: uint64(1000*rk + 100*e + 7), PC: uint64(300*rk + 11*e + 5)}}
			ev.EndEval(time.Millisecond)
			check("EndEval", &ev)
			recs[rk].AddEval(&ev)
			check("AddEval", &recs[rk])
		}
	}
	var all StepMetrics
	FoldRanks(&all, recs)
	check("FoldRanks", &all)

	var buf bytes.Buffer
	if err := WriteStepMetricsJSONL(&buf, []StepMetrics{all}); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"flops"`)) {
		t.Errorf("the stream carries a flops key: %s", buf.Bytes())
	}
	out, err := ReadMetricsJSONL(&buf)
	if err != nil || len(out) != 1 {
		t.Fatalf("read %d records, err %v; want 1", len(out), err)
	}
	check("JSONL", &out[0])
	if out[0].Flops != all.Flops {
		t.Errorf("JSONL round trip: Flops %v, want %v", out[0].Flops, all.Flops)
	}
}

// The two folds run once per step with tracing off: they must not allocate.
func TestFoldsDoNotAllocate(t *testing.T) {
	recs := []StepMetrics{schemaInput(0, 0, 2), schemaInput(1, 0, 2)}
	var step, all StepMetrics
	if n := testing.AllocsPerRun(100, func() { step.AddEval(&recs[0]) }); n != 0 {
		t.Errorf("AddEval allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { FoldRanks(&all, recs) }); n != 0 {
		t.Errorf("FoldRanks allocates %v times per call", n)
	}
}

// FuzzReadMetricsJSONL feeds the JSONL decoder — which rank 0 runs on the
// step records other processes send it — arbitrary input. It must
// never panic; every record it returns re-encodes and decodes to itself; and
// cutting the re-encoded stream inside its final line returns the complete
// prefix.
func FuzzReadMetricsJSONL(f *testing.F) {
	perRank := schemaInput(1, 0, 2)
	perRank.Substep, perRank.Substeps, perRank.Rebuilds, perRank.ActiveN, perRank.TotalN, perRank.RungPop = 0, 0, 0, 0, 0, nil
	perRank.Derive()
	var merged StepMetrics
	FoldRanks(&merged, []StepMetrics{perRank, schemaInput(0, 0, 2)})
	block := schemaInput(0, 1, 1)
	block.RungPop = []int{700, 200, 100}
	for _, m := range []StepMetrics{perRank, merged, block} {
		var buf bytes.Buffer
		if err := WriteStepMetricsJSONL(&buf, []StepMetrics{m}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint16(7))
	}

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		recs, err := ReadMetricsJSONL(bytes.NewReader(data))
		if err != nil || len(recs) == 0 {
			return
		}
		var enc bytes.Buffer
		if err := WriteStepMetricsJSONL(&enc, recs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadMetricsJSONL(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v\n%s", err, enc.Bytes())
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("records do not round-trip:\n got %+v\nwant %+v", again, recs)
		}

		// Cut strictly inside the final line (its newline kept off).
		b := enc.Bytes()
		last := bytes.LastIndexByte(b[:len(b)-1], '\n') + 1
		at := last + int(cut)%(len(b)-1-last)
		prefix, err := ReadMetricsJSONL(bytes.NewReader(b[:at]))
		if err != nil {
			t.Fatalf("cut at %d of %d: %v", at, len(b), err)
		}
		if len(prefix) != len(recs)-1 || len(prefix) > 0 && !reflect.DeepEqual(prefix, recs[:len(prefix)]) {
			t.Fatalf("cut at %d of %d: %d records, want the %d-record prefix", at, len(b), len(prefix), len(recs)-1)
		}
	})
}
