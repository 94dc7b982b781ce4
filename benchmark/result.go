package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"bonsai/internal/grav"
)

const (
	// defaultSeed drives every generator unless -seed is given; heldOutSeed
	// is never used while a change is written and verifies its claim.
	defaultSeed = 1
	heldOutSeed = 20140917
	// pinnedProcs is the GOMAXPROCS every workload process runs under: the
	// reference host has two cores.
	pinnedProcs = 2
)

// spec is BENCHMARK.json: the one place metric names, units, directions and
// bounds are defined. The harness reads it; it never restates it.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(buf, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// metrics returns the metric list a traced or a tracing-off run reports.
func (s *spec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// outcome is the contract object a run prints as its last line.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome pairs the measured values with the units the spec gives them. A
// metric the spec lists but the run did not measure, one it measured that the
// spec does not list, or a value that is not finite is a failed operation.
func (m *metricSet) outcome(specs []metricSpec) outcome {
	oc := outcome{Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := m.vals[s.Name]
		m.check(ok && isFinite(v), "metric %s: measured=%v value=%g", s.Name, ok, v)
		if !isFinite(v) {
			v = 0
		}
		oc.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for name := range m.vals {
		if _, ok := oc.Metrics[name]; !ok {
			m.check(false, "metric %s is not in BENCHMARK.json", name)
		}
	}
	oc.Attempted, oc.Failed, oc.Correct = m.attempted, m.failed, m.failed == 0
	return oc
}

// hostBlock describes where a result was measured. Results from different
// hosts are not comparable; Commit is recorded but may differ.
type hostBlock struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	KernelISA  string `json:"kernel_isa"`
	Commit     string `json:"commit"`
}

func readHost() hostBlock {
	h := hostBlock{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: pinnedProcs,
		GoVersion: runtime.Version(), KernelISA: grav.KernelISA(), Commit: "unknown",
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// sameHost reports whether two results may be compared.
func sameHost(a, b hostBlock) bool {
	a.Commit, b.Commit = "", ""
	return a == b
}

// runResult is one workload run as the result file keeps it.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	outcome
}

// resultFile is what run writes and compare reads.
type resultFile struct {
	Host hostBlock   `json:"host"`
	Runs []runResult `json:"runs"`
}

func (f resultFile) write(path string) error {
	buf, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// values lists one metric of one workload over the file's runs.
func (f resultFile) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if mv, ok := r.Metrics[metric]; ok && r.Workload == workload {
			v = append(v, mv.Value)
		}
	}
	return v
}
