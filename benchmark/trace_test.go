package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "step", Start: 0, End: 100 * ms, ID: 7, Parent: -1},
		{Name: "walk", Start: 10 * ms, End: 30 * ms, ID: 7, Parent: 0},
		{Name: "walk", Start: 20 * ms, End: 50 * ms, ID: 7, Parent: 0}, // overlaps its sibling
		{Name: "sort", Start: 60 * ms, End: 70 * ms, ID: 7, Parent: 0},
		{Name: "leaf", Start: 62 * ms, End: 65 * ms, ID: 7, Parent: 3},
		{Name: "step", Start: 100 * ms, End: 110 * ms, ID: 8, Parent: -1},
	}
	want := []time.Duration{50 * ms, 20 * ms, 30 * ms, 7 * ms, 3 * ms, 10 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].Name, got, want[i])
		}
	}
	by := selfByName(spans, 7)
	if !near(by["walk"], 0.050) || !near(by["step"], 0.050) || len(by) != 4 {
		t.Errorf("selfByName(7) = %v", by)
	}
}

func TestTracerNilRecordsNothingAndChromeFileParses(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", 0, -1)) // must not panic

	tr := newTracer()
	outer := tr.begin("outer", 1, -1)
	tr.end(tr.begin("inner", 1, outer))
	tr.end(outer)
	path := filepath.Join(t.TempDir(), "t.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Args map[string]int
		}
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Args["parent"] != 0 || doc.TraceEvents[1].Args["id"] != 1 {
		t.Errorf("trace events = %+v", doc.TraceEvents)
	}
}
