package bonsai

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"bonsai/internal/obs"
	"bonsai/internal/obs/telemetry"
)

// unixNodes is a multi-process run inside one process: one NodeSimulation
// per rank over an all-local unix-socket world, driven in lockstep.
type unixNodes []*NodeSimulation

func newUnixNodes(tb testing.TB, cfg Config, parts []Particle) unixNodes {
	tb.Helper()
	dir := tb.TempDir()
	addrs, local := make([]string, cfg.Ranks), make([]int, cfg.Ranks)
	for r := range addrs {
		addrs[r], local[r] = filepath.Join(dir, fmt.Sprintf("r%d.sock", r)), r
	}
	w, err := NewSocketWorld(cfg.Ranks, "unix", addrs, local)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { w.Close() })
	nodes := make(unixNodes, cfg.Ranks)
	for r := range nodes {
		if nodes[r], err = NewNodeSimulation(cfg, w, r, SliceForRank(parts, r, cfg.Ranks)); err != nil {
			tb.Fatal(err)
		}
	}
	return nodes
}

// each runs fn on every node concurrently: one collective round.
func (ns unixNodes) each(fn func(n *NodeSimulation)) {
	var wg sync.WaitGroup
	for _, n := range ns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(n)
		}()
	}
	wg.Wait()
}

// gatherTelemetry runs the run-end collective and returns rank 0's error.
func (ns unixNodes) gatherTelemetry() error {
	errs := make([]error, len(ns))
	ns.each(func(n *NodeSimulation) { _, errs[n.Rank()] = n.GatherTelemetry() })
	return errs[0]
}

// The two drivers feed one fleet view: a traced 4-rank Simulation and four
// traced NodeSimulations over a unix-socket world, same seed, SerialLET, three
// block steps, write the same folded JSONL stream — as many records, the same
// keys, the same counts per evaluation — and Prometheus views that parse and
// carry every gauge row of obs.Schema for every rank; the multi-process merged
// trace has every rank's track.
func TestTelemetryDriversAgree(t *testing.T) {
	const steps = 3
	cfg := Config{Ranks: 4, Softening: 0.05, DT: 1e-2, SerialLET: true, Tracing: true,
		BlockSteps: true, MaxRungs: 2, EtaDT: 0.02, GravConst: 1}
	parts := NewPlummer(4000, 1, 1, 1, 5)

	s, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(steps)
	var inJSONL, inProm bytes.Buffer
	if err := s.WriteMetricsJSONL(&inJSONL); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteProm(&inProm); err != nil {
		t.Fatal(err)
	}

	nodes := newUnixNodes(t, cfg, parts)
	for range steps {
		nodes.each(func(n *NodeSimulation) { n.Step() })
	}
	if err := nodes.gatherTelemetry(); err != nil {
		t.Fatal(err)
	}
	var mpJSONL, mpProm, mpTrace bytes.Buffer
	for _, write := range []struct {
		to *bytes.Buffer
		fn func(io.Writer) error
	}{{&mpJSONL, nodes[0].WriteMetricsJSONL}, {&mpProm, nodes[0].WriteProm}, {&mpTrace, nodes[0].WriteChromeTrace}} {
		if err := write.fn(write.to); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[1].WriteMetricsJSONL(io.Discard); err == nil {
		t.Error("rank 1 wrote a metrics stream; the fleet view is on rank 0")
	}

	inKeys, mpKeys := jsonlKeys(t, inJSONL.Bytes()), jsonlKeys(t, mpJSONL.Bytes())
	if len(inKeys) != len(mpKeys) || len(inKeys) < steps+1 {
		t.Fatalf("streams hold %d and %d records, want the same number, at least %d", len(inKeys), len(mpKeys), steps+1)
	}
	for i := range inKeys {
		if inKeys[i] != mpKeys[i] {
			t.Errorf("record %d keys differ:\n Simulation      %s\n NodeSimulations %s", i, inKeys[i], mpKeys[i])
		}
	}
	inRecs, err := obs.ReadMetricsJSONL(&inJSONL)
	if err != nil {
		t.Fatal(err)
	}
	mpRecs, err := obs.ReadMetricsJSONL(&mpJSONL)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range inRecs {
		b := mpRecs[i]
		if a.Step != b.Step || a.Ranks != b.Ranks || a.N != b.N || a.PP != b.PP || a.PC != b.PC ||
			a.LETsSent != b.LETsSent || a.BoundaryUsed != b.BoundaryUsed || a.BytesSent != b.BytesSent {
			t.Errorf("evaluation %d differs:\n Simulation      step %d ranks %d n %d pp %d pc %d lets %d boundary %d bytes %d\n NodeSimulations step %d ranks %d n %d pp %d pc %d lets %d boundary %d bytes %d",
				i, a.Step, a.Ranks, a.N, a.PP, a.PC, a.LETsSent, a.BoundaryUsed, a.BytesSent,
				b.Step, b.Ranks, b.N, b.PP, b.PC, b.LETsSent, b.BoundaryUsed, b.BytesSent)
		}
	}

	events, err := obs.ParseChromeTrace(&mpTrace)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.AnalyzeTrace(events).NumRanks; got != cfg.Ranks {
		t.Errorf("merged trace has %d rank tracks, want %d", got, cfg.Ranks)
	}

	for name, exposition := range map[string]*bytes.Buffer{"Simulation": &inProm, "NodeSimulations": &mpProm} {
		samples, err := telemetry.ParseProm(exposition)
		if err != nil {
			t.Fatalf("%s exposition does not parse: %v", name, err)
		}
		for rank := range cfg.Ranks {
			for i := range obs.Schema {
				family := obs.Schema[i].Gauge
				if family == "" {
					continue
				}
				prefix := fmt.Sprintf(`%s{rank="%d"`, family, rank)
				found := false
				for key := range samples {
					found = found || strings.HasPrefix(key, prefix)
				}
				if !found {
					t.Errorf("%s exposition lacks %s for rank %d", name, family, rank)
				}
			}
		}
	}
}

// jsonlKeys returns each line's sorted key list.
func jsonlKeys(t *testing.T, stream []byte) []string {
	t.Helper()
	var out []string
	for _, line := range bytes.Split(bytes.TrimSpace(stream), []byte("\n")) {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out = append(out, strings.Join(keys, ","))
	}
	return out
}

// benchTelemetryStep times the steps of a multi-process run — four
// NodeSimulations over unix sockets — with tracing either off (no recorder,
// the nil fast paths, no telemetry message) or on: span recording, the
// per-step gather of every rank's records to rank 0's fleet view, and, inside
// the timed region, the run-end gather and rank 0's trace, JSONL and
// Prometheus exports. The delta is the end-to-end price of observing a run;
// the acceptance bar is < 3%.
func benchTelemetryStep(b *testing.B, tracing bool) {
	const ranks = 4
	parts := NewPlummer(32_000, 1, 1, 1, 42)
	nodes := newUnixNodes(b, Config{
		Ranks:     ranks,
		Theta:     0.4,
		Softening: SofteningForN(len(parts)),
		GravConst: G,
		Tracing:   tracing,
	}, parts)
	nodes.each(func(n *NodeSimulation) { n.Step() }) // settle domains before timing

	b.ResetTimer()
	for range b.N {
		nodes.each(func(n *NodeSimulation) { n.Step() })
	}
	if tracing {
		if err := nodes.gatherTelemetry(); err != nil {
			b.Fatal(err)
		}
		for _, write := range []func(io.Writer) error{nodes[0].WriteChromeTrace, nodes[0].WriteMetricsJSONL, nodes[0].WriteProm} {
			if err := write(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchTelemetryStep(b, false) })
	b.Run("traced", func(b *testing.B) { benchTelemetryStep(b, true) })
}
