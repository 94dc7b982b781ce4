package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"bonsai/internal/obs"
)

// promWriter emits Prometheus text exposition format 0.0.4 by hand — the
// repo is dependency-free, so no client library. Samples are buffered per
// metric family and emitted grouped under one # HELP / # TYPE header at
// flush, in first-appearance order, as the format requires — callers may
// interleave families freely (the fleet view writes rank by rank).
type promWriter struct {
	w     io.Writer
	order []string
	fams  map[string]*promFamily
}

type promFamily struct {
	typ, help string
	lines     []string
}

func newPromWriter(w io.Writer) *promWriter {
	return &promWriter{w: w, fams: map[string]*promFamily{}}
}

// label is one name="value" pair; labels render in the given order.
type label struct{ k, v string }

func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func (p *promWriter) sample(typ, name, help string, labels []label, v float64) {
	fam := p.fams[name]
	if fam == nil {
		fam = &promFamily{typ: typ, help: help}
		p.fams[name] = fam
		p.order = append(p.order, name)
	}
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `%s=%q`, l.k, promEscape(l.v))
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	fam.lines = append(fam.lines, sb.String())
}

func (p *promWriter) gauge(name, help string, labels []label, v float64) {
	p.sample("gauge", name, help, labels, v)
}

func (p *promWriter) counter(name, help string, labels []label, v float64) {
	p.sample("counter", name, help, labels, v)
}

func (p *promWriter) flush() error {
	bw := bufio.NewWriter(p.w)
	for _, name := range p.order {
		fam := p.fams[name]
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", name, fam.help, name, fam.typ)
		for _, line := range fam.lines {
			bw.WriteString(line)
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

func rankLabel(rank int) []label {
	return []label{{"rank", strconv.Itoa(rank)}}
}

// writeStepProm writes the per-rank gauges of one step record: one sample
// per gauge row of obs.Schema, labelled by rank.
func writeStepProm(p *promWriter, m *obs.StepMetrics, rank int) {
	m.EachGauge(func(family, help, name, value string, v float64) {
		labels := rankLabel(rank)
		if name != "" {
			labels = append(labels, label{name, value})
		}
		p.gauge(family, help, labels, v)
	})
}

// WriteProm writes the fleet view in Prometheus text format: every rank's
// gauges from its latest record and, once the run-end state is in, each
// rank's clock offset and its uncertainty and the pair-byte totals.
func (f *Fleet) WriteProm(w io.Writer) error {
	f.mu.Lock()
	latest := append([]obs.StepMetrics(nil), f.latest...)
	end := f.end
	f.mu.Unlock()

	p := newPromWriter(w)
	p.gauge("bonsai_ranks", "ranks in the fleet view", nil, float64(len(latest)))
	for rank := range latest {
		if latest[rank].Ranks > 0 {
			writeStepProm(p, &latest[rank], rank)
		}
	}
	if end != nil {
		for rank := range end.Offsets {
			p.gauge("bonsai_clock_offset_seconds", "estimated recorder-clock offset vs rank 0",
				rankLabel(rank), float64(end.Offsets[rank])/1e9)
			p.gauge("bonsai_clock_uncertainty_seconds",
				"half the best round-trip of the offset estimate (residual skew bound)",
				rankLabel(rank), float64(end.Uncerts[rank])/1e9)
		}
		for from, row := range end.Pair {
			for to, b := range row {
				if b > 0 {
					p.counter("bonsai_pair_bytes", "cumulative wire bytes by (sender, receiver) rank pair",
						[]label{{"from", strconv.Itoa(from)}, {"to", strconv.Itoa(to)}}, float64(b))
				}
			}
		}
	}
	return p.flush()
}

// ParseProm validates Prometheus text exposition format and returns the
// samples keyed by "name{labels}" exactly as serialized. It accepts the
// subset this package emits (HELP/TYPE comments, gauge/counter samples, no
// timestamps) and reports the first malformed line — the telemetry smoke
// test's format gate.
func ParseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				return nil, fmt.Errorf("telemetry: prom line %d: unknown comment form", lineNo)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("telemetry: prom line %d: no value", lineNo)
		}
		key, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: prom line %d: bad value %q", lineNo, valStr)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				return nil, fmt.Errorf("telemetry: prom line %d: unterminated label set", lineNo)
			}
			name = key[:i]
			if err := checkPromLabels(key[i+1 : len(key)-1]); err != nil {
				return nil, fmt.Errorf("telemetry: prom line %d: %w", lineNo, err)
			}
		}
		if !validPromName(name) {
			return nil, fmt.Errorf("telemetry: prom line %d: bad metric name %q", lineNo, name)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func checkPromLabels(s string) error {
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || !validPromName(s[:eq]) {
			return fmt.Errorf("bad label name in %q", s)
		}
		rest := s[eq+1:]
		if len(rest) < 2 || rest[0] != '"' {
			return fmt.Errorf("unquoted label value in %q", s)
		}
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return fmt.Errorf("unterminated label value in %q", s)
		}
		s = rest[end+1:]
		if s != "" {
			if s[0] != ',' {
				return fmt.Errorf("missing comma between labels")
			}
			s = s[1:]
		}
	}
	return nil
}

// PromKeys returns the sorted sample keys of a parsed exposition.
func PromKeys(samples map[string]float64) []string {
	keys := make([]string, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
