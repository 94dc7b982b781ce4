package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer. Parent is the index of the span that caused it (-1 for a root); the
// spans of one step, or of one replayed evaluation, share an ID.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	ID, Parent int
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine. A nil *tracer records nothing, so the tracing-off runs share the
// code path of the traced ones.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index, to be passed to end and used as
// the parent of its children.
func (t *tracer) begin(name string, id, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), ID: id, Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = time.Since(t.epoch)
	}
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		c := kids[i]
		sort.Slice(c, func(a, b int) bool { return spans[c[a]].Start < spans[c[b]].Start })
		covered, upTo := time.Duration(0), s.Start
		for _, k := range c {
			lo, hi := max(spans[k].Start, upTo), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums, per name, the self time in seconds of the spans with the
// given ID.
func selfByName(spans []span, id int) map[string]float64 {
	out := map[string]float64{}
	for i, d := range selfTimes(spans) {
		if spans[i].ID == id {
			out[spans[i].Name] += d.Seconds()
		}
	}
	return out
}

// writeChrome writes the spans in Chrome trace-event form (load in Perfetto
// or chrome://tracing); span, parent and step identity ride in args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	self := selfTimes(t.spans)
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", PID: 1, TID: 1,
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{
				"span": i, "parent": s.Parent, "id": s.ID,
				"self_us": int(self[i] / time.Microsecond),
			},
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
