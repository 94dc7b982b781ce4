package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"time"

	"bonsai/internal/grav"
)

// PhaseTimes is one wall-clock breakdown: the rows of the paper's Table II,
// timed per rank per force evaluation, plus the evaluation's total. The
// paper's "Sorting SFC" and "Tree-construction" rows are timed as one
// SortBuild phase: Morton keys, the key sort, the particle reorder and the
// octree construction.
type PhaseTimes struct {
	SortBuild     time.Duration // SFC sort + particle reorder + octree construction
	Domain        time.Duration // sampling decomposition + particle exchange
	TreeProps     time.Duration // multipole computation + target groups
	GravLocal     time.Duration // tree-walk over the local tree
	GravLET       time.Duration // tree-walks over boundary trees and received LETs
	NonHiddenComm time.Duration // LET communication not hidden behind walks
	Other         time.Duration // Total minus the rows above: integration, bookkeeping, waits
	Total         time.Duration // the evaluation's wall-clock time
}

// rowNames is the one row list: the JSONL keys (name + "_ms", and
// "max_" + name + "_ms" for the slowest rank) and the Prometheus phase label
// of every row read it, in the order rows returns them. Total is keyed
// mean_step_ms and max_step_ms.
var rowNames = [...]string{
	"sort_build", "domain", "tree_props", "grav_local", "grav_let", "non_hidden_comm", "other",
}

// rows returns the rows rowNames names, Other last.
func (p *PhaseTimes) rows() [len(rowNames)]*time.Duration {
	return [...]*time.Duration{&p.SortBuild, &p.Domain, &p.TreeProps, &p.GravLocal, &p.GravLET, &p.NonHiddenComm, &p.Other}
}

// Accounted returns the sum of the explicitly timed phases: every row
// before Other.
func (p *PhaseTimes) Accounted() (sum time.Duration) {
	rows := p.rows()
	for _, d := range rows[:len(rows)-1] {
		sum += *d
	}
	return sum
}

// DeriveOther sets Other to Total minus the accounted phases, clamped at
// zero, so the Table II rows sum to Total.
func (p *PhaseTimes) DeriveOther() { p.Other = max(p.Total-p.Accounted(), 0) }

// StepMetrics is the one step record: what a rank writes during a force
// evaluation, what the JSONL stream and the telemetry wire carry, and what
// every view (the Prometheus snapshot, tracestats) reads; the public
// bonsai.StepStats is this type.
// Schema declares each field once; the two folds and the codec below are
// driven by it.
//
// A per-rank record (Rank = the reporting rank, Ranks = the world size) has
// MaxTimes == Times and names itself the straggler. FoldRanks turns the
// records of one evaluation, or of one step, into the cross-rank record
// (Rank 0, Ranks = records folded, Times the mean and MaxTimes the slowest
// rank per phase); AddEval folds a rank's evaluations into its step record.
type StepMetrics struct {
	Step      int    // sequence number of the record's (last) force evaluation
	Rank      int    // reporting rank (0 in a cross-rank record)
	Ranks     int    // world size (a per-rank record) or records folded (a cross-rank one)
	Straggler int    // rank with the longest evaluation
	KernelISA string // force-kernel ISA the walks ran on

	Times    PhaseTimes
	MaxTimes PhaseTimes

	N              int   // particles owned
	grav.Stats           // interactions evaluated: PP and PC
	LETsSent       int   // full LETs pushed to other ranks
	LETsRecv       int   // full LETs received
	LETsOverlapped int   // full LETs taken from the mailbox before the local walk finished
	BoundaryUsed   int   // peers served by their boundary tree alone
	BoundarySent   int   // boundary trees pushed: p−1 per rank per evaluation
	BytesSent      int64 // serialized LET + boundary traffic

	// RecvIdle is the compute thread's time blocked on straggler LETs after
	// its local walk and every boundary tree are done; it is part of
	// NonHiddenComm.
	RecvIdle time.Duration
	// WorstArrival is the latest time a full LET was taken from the mailbox,
	// relative to local-walk completion (negative = all hidden), measured
	// over ArrivalsSeen arrivals; traced runs only.
	WorstArrival time.Duration
	ArrivalsSeen int
	SpansDropped int64 // trace spans the rank's full buffer discarded so far

	// Block-timestep fields (MaxRungs > 0 only): the substep barrier
	// the evaluation ran at (0 = a priming evaluation), 1 per block
	// evaluation (summed: the step's substeps), 1 when it rebuilt the tree
	// rather than refreshing multipoles (summed: the step's rebuilds), the
	// global active and total particle counts, and the global per-rung
	// population after the barrier's rung update.
	Substep  int
	Substeps int
	Rebuilds int
	ActiveN  int
	TotalN   int
	RungPop  []int

	// Derived by Derive after any fold, never folded themselves.
	ImbalancePct  float64 // (max − mean)/mean step time × 100
	OverlapFrac   float64 // LETsOverlapped / LETsRecv
	WalkGflops    float64 // total flops over the mean per-rank walk time
	AppGflops     float64 // total flops over the slowest rank's step time
	PPPerParticle float64
	PCPerParticle float64
	ActiveFrac    float64 // ActiveN / TotalN
	Flops         float64 // PP·FlopsPP + PC·FlopsPC (§VI.A)
}

// Fold is how a metric combines over a step's evaluations (AddEval) or over
// ranks (FoldRanks).
type Fold uint8

const (
	Sum     Fold = iota
	Last         // the latest evaluation's value
	Mean         // over ranks: the sum divided by the rank count
	Max          // over ranks: the largest
	MaxSeen      // the largest among records with ArrivalsSeen > 0
	Same         // over ranks: every rank holds the same value; the first is kept
	Ident        // record identity, set by FoldRanks itself
	Derived      // computed by Derive, never folded
)

// Metric is one row of Schema.
type Metric struct {
	Key   string // JSONL key
	Unit  string // "ms" for every time.Duration (gauged in seconds); "flag" is a 0/1 count written as a bool
	Eval  Fold   // over a rank's evaluations within a step
	Ranks Fold   // over ranks
	Omit  bool   // left out of JSONL and Prometheus when zero

	// Gauge is the Prometheus family ("" = not exported). Label names the
	// sample's label besides rank: LabelValue for a phase row, the element
	// index for RungPop, the value itself for KernelISA (gauged as 1).
	Gauge, Label, LabelValue, Help string

	field func(*StepMetrics) any // pointer to the field
}

// Schema is the one declaration of every step metric. Adding a metric is a
// field above, a row here and the line that measures it.
var Schema = func() []Metric {
	s := []Metric{
		{Key: "step", Unit: "count", Eval: Last, Ranks: Same,
			Gauge: "bonsai_step", Help: "latest completed force evaluation",
			field: func(m *StepMetrics) any { return &m.Step }},
		{Key: "rank", Unit: "count", Eval: Last, Ranks: Ident, field: func(m *StepMetrics) any { return &m.Rank }},
		{Key: "ranks", Unit: "count", Eval: Last, Ranks: Ident, field: func(m *StepMetrics) any { return &m.Ranks }},
		{Key: "straggler_rank", Unit: "count", Eval: Last, Ranks: Ident, field: func(m *StepMetrics) any { return &m.Straggler }},
		{Key: "kernel_isa", Unit: "isa", Eval: Last, Ranks: Same,
			Gauge: "bonsai_kernel_isa", Label: "isa", Help: "force-kernel ISA in use (value is always 1)",
			field: func(m *StepMetrics) any { return &m.KernelISA }},
		{Key: "n", Unit: "count", Eval: Last, Ranks: Sum, field: func(m *StepMetrics) any { return &m.N }},
		{Key: "mean_step_ms", Unit: "ms", Eval: Sum, Ranks: Mean, field: func(m *StepMetrics) any { return &m.Times.Total }},
		{Key: "max_step_ms", Unit: "ms", Eval: Sum, Ranks: Max,
			Gauge: "bonsai_step_seconds", Help: "wall-clock time of the latest force evaluation",
			field: func(m *StepMetrics) any { return &m.MaxTimes.Total }},
		{Key: "imbalance_pct", Unit: "%", Eval: Derived, Ranks: Derived, field: func(m *StepMetrics) any { return &m.ImbalancePct }},
	}
	for i, name := range rowNames {
		s = append(s,
			Metric{Key: name + "_ms", Unit: "ms", Eval: Sum, Ranks: Mean,
				Gauge: "bonsai_phase_seconds", Label: "phase", LabelValue: name,
				Help:  "per-phase time of the latest force evaluation",
				field: func(m *StepMetrics) any { return m.Times.rows()[i] }},
			Metric{Key: "max_" + name + "_ms", Unit: "ms", Eval: Sum, Ranks: Max,
				field: func(m *StepMetrics) any { return m.MaxTimes.rows()[i] }})
	}
	return append(s, []Metric{
		{Key: "pp", Unit: "count", Eval: Sum, Ranks: Sum, field: func(m *StepMetrics) any { return &m.PP }},
		{Key: "pc", Unit: "count", Eval: Sum, Ranks: Sum, field: func(m *StepMetrics) any { return &m.PC }},
		{Key: "pp_per_particle", Unit: "count", Eval: Derived, Ranks: Derived, field: func(m *StepMetrics) any { return &m.PPPerParticle }},
		{Key: "pc_per_particle", Unit: "count", Eval: Derived, Ranks: Derived, field: func(m *StepMetrics) any { return &m.PCPerParticle }},
		{Key: "walk_gflops", Unit: "Gflop/s", Eval: Derived, Ranks: Derived,
			Gauge: "bonsai_walk_gflops", Help: "tree-walk throughput of the latest force evaluation",
			field: func(m *StepMetrics) any { return &m.WalkGflops }},
		{Key: "app_gflops", Unit: "Gflop/s", Eval: Derived, Ranks: Derived,
			Gauge: "bonsai_app_gflops", Help: "application throughput of the latest force evaluation",
			field: func(m *StepMetrics) any { return &m.AppGflops }},
		{Key: "lets_sent", Unit: "count", Eval: Sum, Ranks: Sum, field: func(m *StepMetrics) any { return &m.LETsSent }},
		{Key: "lets_recv", Unit: "count", Eval: Sum, Ranks: Sum,
			Gauge: "bonsai_lets_recv", Help: "full LETs received in the latest force evaluation",
			field: func(m *StepMetrics) any { return &m.LETsRecv }},
		{Key: "lets_overlapped", Unit: "count", Eval: Sum, Ranks: Sum, field: func(m *StepMetrics) any { return &m.LETsOverlapped }},
		{Key: "overlap_frac", Unit: "1", Eval: Derived, Ranks: Derived,
			Gauge: "bonsai_overlap_frac", Help: "fraction of LETs fully hidden behind the local walk",
			field: func(m *StepMetrics) any { return &m.OverlapFrac }},
		{Key: "boundary_used", Unit: "count", Eval: Sum, Ranks: Sum, field: func(m *StepMetrics) any { return &m.BoundaryUsed }},
		{Key: "boundary_sent", Unit: "count", Eval: Sum, Ranks: Sum, Omit: true, field: func(m *StepMetrics) any { return &m.BoundarySent }},
		{Key: "bytes_sent", Unit: "bytes", Eval: Sum, Ranks: Sum, field: func(m *StepMetrics) any { return &m.BytesSent }},
		{Key: "recv_idle_ms", Unit: "ms", Eval: Sum, Ranks: Mean, field: func(m *StepMetrics) any { return &m.RecvIdle }},
		{Key: "arrivals_seen", Unit: "count", Eval: Sum, Ranks: Sum, field: func(m *StepMetrics) any { return &m.ArrivalsSeen }},
		{Key: "worst_arrival_ms", Unit: "ms", Eval: MaxSeen, Ranks: MaxSeen, field: func(m *StepMetrics) any { return &m.WorstArrival }},
		{Key: "spans_dropped", Unit: "count", Eval: Last, Ranks: Sum,
			Gauge: "bonsai_spans_dropped", Help: "trace spans discarded by full span buffers",
			field: func(m *StepMetrics) any { return &m.SpansDropped }},
		{Key: "substep", Unit: "count", Eval: Last, Ranks: Same, Omit: true, field: func(m *StepMetrics) any { return &m.Substep }},
		{Key: "substeps", Unit: "count", Eval: Sum, Ranks: Same, Omit: true, field: func(m *StepMetrics) any { return &m.Substeps }},
		{Key: "tree_rebuilt", Unit: "flag", Eval: Sum, Ranks: Same, Omit: true, field: func(m *StepMetrics) any { return &m.Rebuilds }},
		{Key: "active_n", Unit: "count", Eval: Sum, Ranks: Same, Omit: true, field: func(m *StepMetrics) any { return &m.ActiveN }},
		{Key: "total_n", Unit: "count", Eval: Sum, Ranks: Same, Omit: true, field: func(m *StepMetrics) any { return &m.TotalN }},
		{Key: "active_frac", Unit: "1", Eval: Derived, Ranks: Derived, Omit: true,
			Gauge: "bonsai_active_frac", Help: "fraction of particles force-evaluated in the latest block substep",
			field: func(m *StepMetrics) any { return &m.ActiveFrac }},
		{Key: "rung_pop", Unit: "count", Eval: Last, Ranks: Same, Omit: true,
			Gauge: "bonsai_rung_population", Label: "rung", Help: "global particle count per block-timestep rung",
			field: func(m *StepMetrics) any { return &m.RungPop }},
	}...)
}()

// EndEval closes a per-rank record of one evaluation: stamps its total,
// derives Other so the rows sum to it, mirrors the times into MaxTimes (a
// rank is its own slowest rank) and derives the ratios.
func (m *StepMetrics) EndEval(total time.Duration) {
	m.Times.Total = total
	m.Times.DeriveOther()
	m.MaxTimes = m.Times
	m.Straggler = m.Rank
	m.Derive()
}

// AddEval folds one evaluation's record into a rank's step record by each
// metric's Eval rule.
func (m *StepMetrics) AddEval(e *StepMetrics) {
	fold(m, e, false, false)
	m.Derive()
}

// FoldRanks sets dst to the cross-rank record of recs (the per-rank records
// of one evaluation, or of one step) by each metric's Ranks rule: Rank 0,
// Ranks = len(recs), and the straggler named by the longest step time.
func FoldRanks(dst *StepMetrics, recs []StepMetrics) {
	*dst = StepMetrics{Ranks: len(recs)}
	for i := range recs {
		if i == 0 || recs[i].MaxTimes.Total > dst.MaxTimes.Total {
			dst.Straggler = recs[i].Rank
		}
		fold(dst, &recs[i], true, i == 0)
	}
	for i := range Schema {
		if d, ok := Schema[i].field(dst).(*time.Duration); ok && Schema[i].Ranks == Mean && len(recs) > 0 {
			*d /= time.Duration(len(recs))
		}
	}
	dst.Derive()
}

// fold applies one record to an accumulator by the Eval rules, or by the
// Ranks rules when overRanks (first marks the first rank; Mean rows are left
// as sums for FoldRanks to divide).
func fold(dst, src *StepMetrics, overRanks, first bool) {
	dstSeen := dst.ArrivalsSeen > 0 // before this record's arrivals are added
	for i := range Schema {
		r := &Schema[i]
		rule, firstVal := r.Eval, first
		if overRanks {
			rule = r.Ranks
		}
		if rule == MaxSeen {
			if src.ArrivalsSeen == 0 {
				continue
			}
			rule, firstVal = Max, !dstSeen
		}
		switch d := r.field(dst).(type) {
		case *int:
			foldValue(rule, d, *r.field(src).(*int), firstVal)
		case *int64:
			foldValue(rule, d, *r.field(src).(*int64), firstVal)
		case *uint64:
			foldValue(rule, d, *r.field(src).(*uint64), firstVal)
		case *time.Duration:
			foldValue(rule, d, *r.field(src).(*time.Duration), firstVal)
		case *string:
			if rule == Last || rule == Same && firstVal {
				*d = *r.field(src).(*string)
			}
		case *[]int:
			if rule == Last || rule == Same && firstVal {
				*d = *r.field(src).(*[]int)
			}
		}
	}
}

func foldValue[T int | int64 | uint64 | time.Duration](rule Fold, d *T, s T, first bool) {
	switch {
	case rule == Sum || rule == Mean:
		*d += s
	case rule == Last, rule == Same && first, rule == Max && (first || s > *d):
		*d = s
	}
}

// Derive computes the ratios from the folded values, the one place each is
// defined, for per-rank, cross-rank and step records alike. Ranks walk
// concurrently, so the walk rate is the total flop count over the mean
// per-rank walk time; the application rate divides by the slowest rank's
// step (the paper's headline metric). A zero time or count gives a zero
// ratio, never Inf or NaN.
func (m *StepMetrics) Derive() {
	m.ImbalancePct = 0
	if mean := m.Times.Total; mean > 0 {
		m.ImbalancePct = (float64(m.MaxTimes.Total)/float64(mean) - 1) * 100
	}
	m.OverlapFrac = ratio(m.LETsOverlapped, m.LETsRecv)
	m.Flops = m.Stats.Flops()
	m.WalkGflops = m.Stats.Gflops(m.Times.GravLocal + m.Times.GravLET)
	m.AppGflops = m.Stats.Gflops(m.MaxTimes.Total)
	m.PPPerParticle = ratio(m.PP, uint64(m.N))
	m.PCPerParticle = ratio(m.PC, uint64(m.N))
	m.ActiveFrac = ratio(m.ActiveN, m.TotalN)
}

func ratio[T int | uint64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Millis converts a duration to the milliseconds the JSONL stream carries.
func Millis(d time.Duration) float64 { return float64(d) / 1e6 }

// maxMillis bounds decoded times (~11.6 days) so that every decoded
// duration re-encodes to itself.
const maxMillis = 1e9

// MarshalJSON writes the record as one flat object, keys in Schema order.
func (m StepMetrics) MarshalJSON() ([]byte, error) { return m.appendJSON(nil), nil }

// appendJSON encodes the record after b. Schema's first row is never
// omitted, so it opens the object.
func (m *StepMetrics) appendJSON(b []byte) []byte {
	sep := byte('{')
	for i := range Schema {
		r := &Schema[i]
		p := r.field(m)
		if r.Omit && isZero(p) {
			continue
		}
		switch v := p.(type) {
		case *time.Duration:
			p = Millis(*v)
		case *int:
			if r.Unit == "flag" {
				p = *v != 0
			}
		}
		j, _ := json.Marshal(p)
		b = append(append(append(b, sep, '"'), r.Key...), '"', ':')
		b = append(b, j...)
		sep = ','
	}
	return append(b, '}')
}

// UnmarshalJSON reads a record written by MarshalJSON (unknown keys are
// ignored) and re-derives the ratios rather than trusting the stream's.
func (m *StepMetrics) UnmarshalJSON(b []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	*m = StepMetrics{}
	for i := range Schema {
		r := &Schema[i]
		if v, ok := raw[r.Key]; ok {
			if err := decodeValue(r, r.field(m), v); err != nil {
				return fmt.Errorf("obs: metric %s: %w", r.Key, err)
			}
		}
	}
	if len(m.RungPop) == 0 {
		m.RungPop = nil
	}
	m.Derive()
	return nil
}

func decodeValue(r *Metric, p any, v json.RawMessage) error {
	switch p := p.(type) {
	case *float64:
		return nil // derived
	case *time.Duration:
		var ms float64
		if err := json.Unmarshal(v, &ms); err != nil {
			return err
		}
		if math.Abs(ms) > maxMillis {
			return fmt.Errorf("%v ms out of range", ms)
		}
		*p = time.Duration(math.Round(ms * 1e6))
		return nil
	case *int:
		if r.Unit == "flag" {
			var f bool
			err := json.Unmarshal(v, &f)
			if f {
				*p = 1
			}
			return err
		}
	}
	return json.Unmarshal(v, p)
}

// number reads a numeric field, durations in seconds.
func number(p any) float64 {
	switch v := p.(type) {
	case *int:
		return float64(*v)
	case *int64:
		return float64(*v)
	case *uint64:
		return float64(*v)
	case *time.Duration:
		return v.Seconds()
	case *float64:
		return *v
	}
	return 0
}

func isZero(p any) bool { return reflect.ValueOf(p).Elem().IsZero() }

// EachGauge calls fn once per Prometheus sample of the record's gauge rows:
// the family, its help text, the label besides rank ("" when none) with its
// value, and the sample value, times in seconds.
func (m *StepMetrics) EachGauge(fn func(family, help, label, value string, v float64)) {
	for i := range Schema {
		r := &Schema[i]
		p := r.field(m)
		if r.Gauge == "" || r.Omit && isZero(p) {
			continue
		}
		switch v := p.(type) {
		case *[]int:
			for k, n := range *v {
				fn(r.Gauge, r.Help, r.Label, strconv.Itoa(k), float64(n))
			}
		case *string:
			if *v != "" {
				fn(r.Gauge, r.Help, r.Label, *v, 1)
			}
		default:
			fn(r.Gauge, r.Help, r.Label, r.LabelValue, number(p))
		}
	}
}
