// Package obs is the event-level tracing and metrics layer of the tree-code:
// per-rank span timelines (sort, domain, tree build/props, local walk, and
// the per-LET build/send/recv/walk events of the gravity pipeline),
// log-bucketed histograms of the quantities that locate stragglers (LET
// arrival offset relative to local-walk completion, remote-pass walk latency,
// interaction-list lengths, mailbox queue depth, per-step imbalance), and
// exporters: Chrome trace-event JSON (loadable in chrome://tracing or
// Perfetto, one track per rank with one lane per thread role), a per-step
// JSONL metrics stream, and an optional expvar snapshot for live inspection.
//
// The hot path is built so that *disabled* tracing costs a single nil check:
// every recording method is nil-receiver safe, so callers hold a possibly-nil
// *RankRec / *Hist and call unconditionally. Enabled recording appends into a
// preallocated per-rank span buffer through an atomic cursor — no locks, no
// allocations, safe for the concurrent receiver/builder/compute goroutines of
// one rank. Overflowing spans are counted and dropped, never reallocated. A
// rank's buffer is allocated when the rank is first asked for, so a recorder
// sized for a p-rank world costs a process only the ranks it hosts.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies what a span or instant event measures. The names mirror
// the paper's Table II rows plus the event-level detail of the §III.B.3
// gravity pipeline.
type Phase uint8

const (
	PhaseSort      Phase = iota // SFC key computation + radix sort + reorder
	PhaseDomain                 // sampling decomposition + particle exchange
	PhaseTreeBuild              // octree construction
	PhaseTreeProps              // multipole computation + group making
	PhaseBoundary               // boundary-tree cut + push to every peer; each blocking wait for a peer's tree (arg = source rank)
	PhaseWalkLocal              // one local-tree walk chunk
	PhaseWalkLET                // one batched pass over banked remote trees, a full LET among them (arg = trees in the pass)
	PhaseWalkBound              // one batched pass over boundary trees only (arg = trees in the pass)
	PhaseLETBuild               // build + push of one outgoing LET (arg = destination rank)
	PhaseRecvWait               // receiver goroutine blocked on an arrival (arg = source rank)
	PhaseWaitLET                // compute thread blocked on straggler LETs / builder join
	PhaseIntegrate              // leapfrog kick/drift
	PhaseArrive                 // instant: a full LET arrived (arg = source rank)
	PhaseWalkDone               // instant: local-tree walk completed
	PhaseSortBuild              // SFC sort + particle reorder + octree construction
	PhaseSubstep                // one block-timestep substep: kicks+drift+forces (arg = boundary index)
	numPhase
)

var phaseNames = [numPhase]string{
	"sort", "domain", "tree-build", "tree-props", "boundary-allgather",
	"walk:local", "walk:let", "walk:boundary", "let:build", "recv:wait",
	"wait:let", "integrate", "let:arrive", "walk:done", "sort+build",
	"substep",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "?"
}

// PhaseByName returns the Phase with the given String() name.
func PhaseByName(name string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == name {
			return Phase(i), true
		}
	}
	return 0, false
}

// Instant reports whether the phase is a zero-duration marker event.
func (p Phase) Instant() bool { return p == PhaseArrive || p == PhaseWalkDone }

// Lane is the thread role a span executed on, one trace lane per role within
// a rank's track: the paper's compute / communication(receive) / LET-builder
// thread groups.
type Lane uint8

const (
	LaneCompute Lane = iota
	LaneReceiver
	LaneBuilder
)

func (l Lane) String() string {
	switch l {
	case LaneCompute:
		return "compute"
	case LaneReceiver:
		return "receiver"
	default:
		return "builder"
	}
}

// Span is one recorded event: a closed [Start, End] interval (nanoseconds
// since the recorder epoch) or an instant (End == Start for instant phases).
// Arg carries the phase-specific payload (peer rank, chunk size, ...).
type Span struct {
	Start, End int64
	Arg        int64
	Step       int32 // force-evaluation sequence number
	Phase      Phase
	Lane       Lane
	Worker     uint8 // lane disambiguator (builder pool index)
}

// DefaultSpanCap is the per-rank span-buffer capacity when New is given a
// non-positive capacity: roughly a hundred spans per force evaluation leaves
// room for several hundred traced steps.
const DefaultSpanCap = 1 << 15

// Recorder owns the per-rank span buffers, the named histograms, and the
// per-step metrics stream. A nil *Recorder is the disabled state: all methods
// are nil-safe and record nothing.
type Recorder struct {
	epoch   time.Time
	spanCap int
	ranks   []RankRec
	metrics Metrics

	mu    sync.Mutex
	steps []StepMetrics
}

// New creates an enabled recorder for the given rank count. spanCap is the
// per-rank span capacity (<= 0 selects DefaultSpanCap). A rank's buffer is
// allocated in full by its first Rank call, so recording never allocates.
func New(ranks, spanCap int) *Recorder {
	if spanCap <= 0 {
		spanCap = DefaultSpanCap
	}
	r := &Recorder{
		epoch:   time.Now(),
		spanCap: spanCap,
		ranks:   make([]RankRec, ranks),
		metrics: newMetrics(),
	}
	for i := range r.ranks {
		r.ranks[i].rank = i
		r.ranks[i].epoch = r.epoch
	}
	return r
}

// Enabled reports whether the recorder records (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Now returns nanoseconds elapsed since the recorder epoch (0 for nil) — the
// recorder-local timebase every span timestamp lives on. Cross-process trace
// merging estimates per-recorder clock offsets by round-trip pings against
// this value (the telemetry collector's /clock probe).
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch).Nanoseconds()
}

// Ranks returns the number of rank buffers (0 for nil).
func (r *Recorder) Ranks() int {
	if r == nil {
		return 0
	}
	return len(r.ranks)
}

// Rank returns rank i's span buffer, allocating it on the first call, or nil
// when the recorder is disabled.
func (r *Recorder) Rank(i int) *RankRec {
	if r == nil {
		return nil
	}
	rr := &r.ranks[i]
	rr.alloc.Do(func() { rr.spans = make([]Span, r.spanCap) })
	return rr
}

// Metrics returns the histogram set, or nil when disabled.
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return &r.metrics
}

// AddStep appends one per-step metrics record to the JSONL stream.
func (r *Recorder) AddStep(m StepMetrics) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.steps = append(r.steps, m)
	r.mu.Unlock()
}

// Steps returns a copy of the recorded per-step metrics.
func (r *Recorder) Steps() []StepMetrics {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]StepMetrics, len(r.steps))
	copy(out, r.steps)
	return out
}

// RankRec is one rank's span buffer. Concurrent goroutines of the rank
// (compute, receiver, builders) append through an atomic cursor; the buffer
// is read only after the writers have been joined (end of run). Readers check
// the cursor first: a non-zero cursor orders the buffer's allocation before
// the read, so a rank nobody asked for is never touched.
type RankRec struct {
	rank  int
	epoch time.Time
	n     atomic.Int64
	alloc sync.Once
	spans []Span
}

// Since converts a wall-clock time to nanoseconds since the recorder epoch
// (0 for a nil receiver).
func (rr *RankRec) Since(t time.Time) int64 {
	if rr == nil {
		return 0
	}
	return t.Sub(rr.epoch).Nanoseconds()
}

// Span records one closed interval given wall-clock endpoints.
func (rr *RankRec) Span(step int, ph Phase, lane Lane, worker int, start, end time.Time, arg int64) {
	if rr == nil {
		return
	}
	rr.push(step, ph, lane, worker, rr.Since(start), rr.Since(end), arg)
}

// Mark records an instant event at the given wall-clock time.
func (rr *RankRec) Mark(step int, ph Phase, lane Lane, t time.Time, arg int64) {
	if rr == nil {
		return
	}
	ns := rr.Since(t)
	rr.push(step, ph, lane, 0, ns, ns, arg)
}

func (rr *RankRec) push(step int, ph Phase, lane Lane, worker int, start, end, arg int64) {
	i := rr.n.Add(1) - 1
	if int(i) >= len(rr.spans) {
		return // full: drop, counted by Dropped
	}
	rr.spans[i] = Span{
		Start: start, End: end, Arg: arg,
		Step: int32(step), Phase: ph, Lane: lane, Worker: uint8(worker),
	}
}

// Spans returns the committed spans. Only call after the rank's recording
// goroutines have been joined.
func (rr *RankRec) Spans() []Span {
	if rr == nil {
		return nil
	}
	n := rr.n.Load()
	if n == 0 {
		return nil
	}
	if int(n) > len(rr.spans) {
		n = int64(len(rr.spans))
	}
	return rr.spans[:n]
}

// Dropped returns how many spans were discarded because the buffer was full.
func (rr *RankRec) Dropped() int64 {
	if rr == nil {
		return 0
	}
	n := rr.n.Load()
	if n == 0 {
		return 0
	}
	if over := n - int64(len(rr.spans)); over > 0 {
		return over
	}
	return 0
}
