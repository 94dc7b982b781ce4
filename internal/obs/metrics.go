package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
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

// WriteMetricsJSONL writes the recorded per-step metrics, one JSON object per
// line.
func (r *Recorder) WriteMetricsJSONL(w io.Writer) error {
	return WriteStepMetricsJSONL(w, r.Steps())
}

// WriteStepMetricsJSONL writes any step-metrics list, one JSON object per
// line — the same stream WriteMetricsJSONL produces, for records that are not
// in a recorder (a rank's records of one step, on their way to rank 0).
func WriteStepMetricsJSONL(w io.Writer, steps []StepMetrics) error {
	bw := bufio.NewWriter(w)
	var b []byte
	for i := range steps {
		b = append(steps[i].appendJSON(b[:0]), '\n')
		if _, err := bw.Write(b); err != nil {
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
			if uerr := m.UnmarshalJSON([]byte(s)); uerr != nil {
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
