// Command tracestats analyzes the observability artifacts a traced bonsai
// run writes: Chrome trace-event timelines (bonsai -trace), a per-step JSONL
// metrics stream (bonsai -metrics), and Prometheus text snapshots (bonsai
// -prom-snapshot). It prints the paper's Fig. 5-style overlap report: per
// evaluation, which rank finished its local walk last (the straggler), and
// for every rank how many full LETs arrived before vs after its local walk
// completed — arrivals before completion are communication fully hidden
// behind compute.
//
// Several trace files are analyzed as ONE combined timeline (each worker's
// single-rank trace contributes its own process track), and multi-rank input
// additionally reports the cross-rank start skew — on a clock-aligned merged
// trace this bounds the residual misalignment.
//
// Examples:
//
//	bonsai -ranks 4 -steps 2 -trace step.json -metrics step.jsonl
//	tracestats step.json
//	tracestats rank0.json rank1.json rank2.json rank3.json
//	tracestats -metrics step.jsonl -prom metrics.prom merged.json
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"bonsai/internal/obs"
	"bonsai/internal/obs/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracestats: ")

	metricsPath := flag.String("metrics", "", "per-step JSONL metrics file (from bonsai -metrics)")
	promPath := flag.String("prom", "", "Prometheus text-format snapshot to validate and summarize (from bonsai -prom-snapshot)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: tracestats [-metrics metrics.jsonl] [-prom metrics.prom] [trace.json ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if flag.NArg() == 0 && *metricsPath == "" && *promPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	if flag.NArg() > 0 {
		events, err := readTraces(flag.Args())
		if err != nil {
			log.Fatal(err)
		}
		if flag.NArg() == 1 {
			fmt.Printf("== %s ==\n", flag.Arg(0))
		} else {
			fmt.Printf("== %d trace files, combined ==\n", flag.NArg())
		}
		obs.AnalyzeTrace(events).Format(os.Stdout)
	}

	if *metricsPath != "" {
		f, err := os.Open(*metricsPath)
		if err != nil {
			log.Fatal(err)
		}
		steps, err := obs.ReadMetricsJSONL(f)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", *metricsPath, err)
		}
		fmt.Printf("== %s ==\n", *metricsPath)
		obs.FormatMetricsSummary(os.Stdout, steps)
	}

	if *promPath != "" {
		f, err := os.Open(*promPath)
		if err != nil {
			log.Fatal(err)
		}
		samples, err := telemetry.ParseProm(f)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", *promPath, err)
		}
		fmt.Printf("== %s ==\n", *promPath)
		promReport(os.Stdout, samples)
	}
}

// maxClockResidual is the clock-sync uncertainty above which a merged trace's
// cross-rank ordering is not to be trusted: typical LET arrival offsets are
// of this order.
const maxClockResidual = time.Millisecond

// promReport summarizes a parsed Prometheus snapshot and warns, loudly, about
// every rank whose clock-sync residual exceeds maxClockResidual.
func promReport(w io.Writer, samples map[string]float64) {
	fmt.Fprintf(w, "prometheus exposition: %d samples, format ok\n", len(samples))
	for _, key := range telemetry.PromKeys(samples) {
		if strings.HasPrefix(key, "bonsai_clock_uncertainty_seconds{") {
			if d := time.Duration(samples[key] * 1e9); d > maxClockResidual {
				fmt.Fprintf(w, "WARNING: clock-sync residual %s = %v exceeds 1 ms (the merged trace's cross-rank order is not reliable)\n", key, d)
			}
		}
	}
}

// readTraces parses every trace file and concatenates their event lists into
// one combined timeline: per-rank traces from a multi-process run analyze
// exactly like rank 0's merged trace (each file's events keep their own
// pid = rank track).
func readTraces(paths []string) ([]obs.TraceEvent, error) {
	var events []obs.TraceEvent
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		evs, err := obs.ParseChromeTrace(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		events = append(events, evs...)
	}
	return events, nil
}
