package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

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
