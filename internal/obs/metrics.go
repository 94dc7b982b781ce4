package obs

import (
	"bufio"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics is the fixed set of named histograms the tree-code records. All
// fields are safe for concurrent Observe calls; a nil *Metrics (disabled
// observability) makes every accessor return a nil *Hist, which no-ops.
type Metrics struct {
	// LETArrival is the arrival time of each full LET minus the local-walk
	// completion time of the receiving rank, in nanoseconds. Negative values
	// are LETs whose communication was fully hidden behind the local walk
	// (the paper's Fig. 5 overlap story); positive values are stragglers the
	// compute thread had to wait for.
	LETArrival Hist
	// LETWalk is the wall-clock latency of one batched pass over banked
	// remote trees (boundary trees and received LETs), ns.
	LETWalk Hist
	// ListLen is the interaction-list length (accepted cells + opened-leaf
	// particles) the kernels saw per target group: one sample per group per
	// local-walk chunk, and one per group per remote pass for the list merged
	// over all of the pass's trees.
	ListLen Hist
	// QueueDepth is the receiving mailbox depth observed by each send.
	QueueDepth Hist
	// Imbalance is the per-evaluation load imbalance: slowest-rank step time
	// minus the mean rank step time, ns.
	Imbalance Hist
	// FrameBytes is the encoded on-wire size of each outgoing frame (header
	// plus codec payload). Empty under the in-process transport, which moves
	// payloads by reference and produces no frames.
	FrameBytes Hist
}

func newMetrics() Metrics {
	return Metrics{
		LETArrival: Hist{Name: "let_arrival_offset", Unit: "ns"},
		LETWalk:    Hist{Name: "let_walk_latency", Unit: "ns"},
		ListLen:    Hist{Name: "interaction_list_len", Unit: "count"},
		QueueDepth: Hist{Name: "mailbox_queue_depth", Unit: "count"},
		Imbalance:  Hist{Name: "rank_imbalance", Unit: "ns"},
		FrameBytes: Hist{Name: "wire_frame_bytes", Unit: "bytes"},
	}
}

// LETArrivalHist returns the arrival-offset histogram (nil when disabled).
func (m *Metrics) LETArrivalHist() *Hist {
	if m == nil {
		return nil
	}
	return &m.LETArrival
}

// LETWalkHist returns the remote-pass walk-latency histogram (nil when disabled).
func (m *Metrics) LETWalkHist() *Hist {
	if m == nil {
		return nil
	}
	return &m.LETWalk
}

// ListLenHist returns the interaction-list-length histogram (nil when disabled).
func (m *Metrics) ListLenHist() *Hist {
	if m == nil {
		return nil
	}
	return &m.ListLen
}

// QueueDepthHist returns the mailbox-depth histogram (nil when disabled).
func (m *Metrics) QueueDepthHist() *Hist {
	if m == nil {
		return nil
	}
	return &m.QueueDepth
}

// ImbalanceHist returns the rank-imbalance histogram (nil when disabled).
func (m *Metrics) ImbalanceHist() *Hist {
	if m == nil {
		return nil
	}
	return &m.Imbalance
}

// FrameBytesHist returns the wire-frame-size histogram (nil when disabled).
func (m *Metrics) FrameBytesHist() *Hist {
	if m == nil {
		return nil
	}
	return &m.FrameBytes
}

// Snapshot copies all histograms.
func (m *Metrics) Snapshot() []HistSnapshot {
	if m == nil {
		return nil
	}
	return []HistSnapshot{
		m.LETArrival.Snapshot(), m.LETWalk.Snapshot(), m.ListLen.Snapshot(),
		m.QueueDepth.Snapshot(), m.Imbalance.Snapshot(), m.FrameBytes.Snapshot(),
	}
}

// StepMetrics is one line of the per-step JSONL metrics stream: the overlap
// and straggler summary of one force evaluation. A Node emits one per-rank
// record per evaluation (Rank = the reporting rank, Mean == Max == that
// rank's step time). MergeStepMetrics folds the per-rank records of an
// evaluation into one (Rank 0, Ranks = world size, mean/max over ranks): an
// in-process Simulation writes that fold of its nodes' records, and the
// telemetry collector applies it to a multi-process run's streams.
type StepMetrics struct {
	Step            int     `json:"step"` // force-evaluation sequence number
	Rank            int     `json:"rank"` // reporting rank (per-rank node records)
	Ranks           int     `json:"ranks"`
	N               int     `json:"n"`
	MeanStepMS      float64 `json:"mean_step_ms"`
	MaxStepMS       float64 `json:"max_step_ms"`
	ImbalancePct    float64 `json:"imbalance_pct"` // (max-mean)/mean * 100
	Straggler       int     `json:"straggler_rank"`
	NonHiddenCommMS float64 `json:"non_hidden_comm_ms"` // mean per rank
	OverlapFrac     float64 `json:"overlap_frac"`
	LETsRecv        int     `json:"lets_recv"`
	LETsOverlapped  int     `json:"lets_overlapped"`
	ArrivalsSeen    int     `json:"arrivals_seen"`
	WorstArrivalMS  float64 `json:"worst_arrival_ms"` // max over ranks of last arrival minus walk end; negative = all hidden
	WalkGflops      float64 `json:"walk_gflops"`
	AppGflops       float64 `json:"app_gflops"`
	KernelISA       string  `json:"kernel_isa"` // force-kernel ISA the walks ran on

	// Phase breakdown of the evaluation in milliseconds (Table II rows):
	// the rank's own times in per-rank records, the mean across ranks in
	// aggregated ones. The Prometheus exposition derives its per-phase
	// gauges from these.
	SortBuildMS float64 `json:"sort_build_ms,omitempty"`
	DomainMS    float64 `json:"domain_ms,omitempty"`
	TreePropsMS float64 `json:"tree_props_ms,omitempty"`
	GravLocalMS float64 `json:"grav_local_ms,omitempty"`
	GravLETMS   float64 `json:"grav_let_ms,omitempty"`
	OtherMS     float64 `json:"other_ms,omitempty"`

	// BoundarySent counts the boundary-tree pushes of the evaluation: p−1 per
	// rank, p·(p−1) in an aggregated record.
	BoundarySent int `json:"boundary_sent,omitempty"`

	// Block-timestep fields (Config.BlockSteps runs only): the substep
	// boundary the evaluation ran at (1..2^MaxRungs; 0 = a priming
	// evaluation), how many particles were active, the active fraction of
	// the global set, whether the evaluation rebuilt the tree from scratch
	// (vs refreshing multipoles on the reused structure), and the global
	// per-rung population after the boundary's rung update.
	Substep     int     `json:"substep,omitempty"`
	ActiveN     int     `json:"active_n,omitempty"`
	ActiveFrac  float64 `json:"active_frac,omitempty"`
	TreeRebuilt bool    `json:"tree_rebuilt,omitempty"`
	RungPop     []int   `json:"rung_pop,omitempty"`
}

// WriteMetricsJSONL writes the recorded per-step metrics, one JSON object per
// line.
func (r *Recorder) WriteMetricsJSONL(w io.Writer) error {
	return WriteStepMetricsJSONL(w, r.Steps())
}

// WriteStepMetricsJSONL writes any step-metrics list, one JSON object per
// line — the same stream WriteMetricsJSONL produces, for callers (the
// telemetry collector) that merge records from several recorders.
func WriteStepMetricsJSONL(w io.Writer, steps []StepMetrics) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, m := range steps {
		if err := enc.Encode(m); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMetricsJSONL parses a per-step JSONL metrics stream.
//
// A truncated final line — the artifact a SIGKILLed worker leaves mid-write —
// is not an error: the complete prefix is returned. Only a malformed line
// that was fully written (newline-terminated) reports corruption.
func ReadMetricsJSONL(r io.Reader) ([]StepMetrics, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var out []StepMetrics
	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return out, err
		}
		terminated := err == nil
		if s := strings.TrimSpace(line); s != "" {
			var m StepMetrics
			if uerr := json.Unmarshal([]byte(s), &m); uerr != nil {
				if !terminated {
					return out, nil // mid-write tail: keep the complete prefix
				}
				return nil, fmt.Errorf("obs: bad metrics line %d: %w", lineNo, uerr)
			}
			out = append(out, m)
		}
		if !terminated {
			return out, nil
		}
	}
}

// MergeStepMetrics folds per-rank step records (one per (evaluation, rank),
// as a multi-process run's merged stream contains) into one aggregated record
// per evaluation: mean/max step time over the ranks, the straggler identified
// by rank, traffic summed. Records already aggregated (a step appearing once)
// pass through unchanged. Output is ordered by step.
func MergeStepMetrics(steps []StepMetrics) []StepMetrics {
	byStep := map[int][]StepMetrics{}
	for _, m := range steps {
		byStep[m.Step] = append(byStep[m.Step], m)
	}
	ids := make([]int, 0, len(byStep))
	for s := range byStep {
		ids = append(ids, s)
	}
	sort.Ints(ids)
	out := make([]StepMetrics, 0, len(ids))
	for _, s := range ids {
		group := byStep[s]
		if len(group) == 1 {
			out = append(out, group[0])
			continue
		}
		agg := StepMetrics{Step: s, Ranks: len(group), KernelISA: group[0].KernelISA}
		// The block-timestep fields are globally agreed values (every rank
		// records the same allreduced numbers), so any group member's copy is
		// the aggregate.
		agg.Substep = group[0].Substep
		agg.ActiveN = group[0].ActiveN
		agg.ActiveFrac = group[0].ActiveFrac
		agg.TreeRebuilt = group[0].TreeRebuilt
		agg.RungPop = group[0].RungPop
		worstArr := 0.0
		for _, m := range group {
			agg.N += m.N
			agg.MeanStepMS += m.MaxStepMS
			if m.MaxStepMS > agg.MaxStepMS {
				agg.MaxStepMS = m.MaxStepMS
				agg.Straggler = m.Rank
			}
			agg.NonHiddenCommMS += m.NonHiddenCommMS
			agg.LETsRecv += m.LETsRecv
			agg.LETsOverlapped += m.LETsOverlapped
			agg.BoundarySent += m.BoundarySent
			if m.ArrivalsSeen > 0 {
				if agg.ArrivalsSeen == 0 || m.WorstArrivalMS > worstArr {
					worstArr = m.WorstArrivalMS
				}
				agg.ArrivalsSeen += m.ArrivalsSeen
			}
			agg.WalkGflops += m.WalkGflops
			agg.SortBuildMS += m.SortBuildMS
			agg.DomainMS += m.DomainMS
			agg.TreePropsMS += m.TreePropsMS
			agg.GravLocalMS += m.GravLocalMS
			agg.GravLETMS += m.GravLETMS
			agg.OtherMS += m.OtherMS
		}
		n := float64(len(group))
		agg.MeanStepMS /= n
		agg.NonHiddenCommMS /= n
		agg.SortBuildMS /= n
		agg.DomainMS /= n
		agg.TreePropsMS /= n
		agg.GravLocalMS /= n
		agg.GravLETMS /= n
		agg.OtherMS /= n
		agg.WorstArrivalMS = worstArr
		if agg.MeanStepMS > 0 {
			agg.ImbalancePct = (agg.MaxStepMS/agg.MeanStepMS - 1) * 100
		}
		if agg.LETsRecv > 0 {
			agg.OverlapFrac = float64(agg.LETsOverlapped) / float64(agg.LETsRecv)
		}
		// Aggregate throughput: ranks walk concurrently, so the combined walk
		// rate is the sum of per-rank rates; the application rate re-derives
		// from the slowest rank's wall-clock via the mean-rate identity.
		if agg.MaxStepMS > 0 {
			sumApp := 0.0
			for _, m := range group {
				sumApp += m.AppGflops * m.MaxStepMS
			}
			agg.AppGflops = sumApp / agg.MaxStepMS
		}
		out = append(out, agg)
	}
	return out
}

var (
	expvarOnce sync.Once
	expvarRec  atomic.Pointer[Recorder]
)

// PublishExpvar registers the recorder under the expvar name "bonsai.obs":
// the histogram snapshots plus the latest step metrics, served live on
// /debug/vars by any process that mounts the expvar handler. Safe to call
// any number of times: the expvar name is registered once per process
// (expvar panics on duplicate names) and backed by an atomic recorder
// pointer, so the latest published recorder is always the one served — a
// second simulation in the same process replaces the first, now-dead one.
func (r *Recorder) PublishExpvar() {
	if r == nil {
		return
	}
	expvarRec.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish("bonsai.obs", expvar.Func(func() any {
			rec := expvarRec.Load()
			steps := rec.Steps()
			v := struct {
				Histograms []HistSnapshot `json:"histograms"`
				Steps      int            `json:"steps"`
				Last       *StepMetrics   `json:"last,omitempty"`
			}{Histograms: rec.Metrics().Snapshot(), Steps: len(steps)}
			if len(steps) > 0 {
				v.Last = &steps[len(steps)-1]
			}
			return v
		}))
	})
}
