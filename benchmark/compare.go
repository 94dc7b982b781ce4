package main

import (
	"errors"
	"fmt"
)

// The verdicts compare gives one workload x end-to-end metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of a candidate against those of a base for one
// metric. Where the run-to-run spread of either side exceeds the bound the
// row is unresolved, not unchanged, unless every candidate run reads better
// than every base run; otherwise the candidate's median may be worse than the
// base's by at most the bound.
func judge(base, cand []float64, s metricSpec) (verdict string, worse, spreadMax float64) {
	mb, mc := median(base), median(cand)
	worse = ratio(mc-mb, mb)
	better := func(c, b float64) bool { return c < b }
	if s.Better == "higher" {
		worse = -worse
		better = func(c, b float64) bool { return c > b }
	}
	spreadMax = max(spread(base), spread(cand))
	if spreadMax > s.Bound {
		for _, c := range cand {
			for _, b := range base {
				if !better(c, b) {
					return verdictUnresolved, worse, spreadMax
				}
			}
		}
		return verdictOK, worse, spreadMax
	}
	if worse > s.Bound {
		return verdictRegressed, worse, spreadMax
	}
	return verdictOK, worse, spreadMax
}

// cmdCompare prints one row per workload x end-to-end metric and fails when
// any row is regressed or unresolved, or when a run of either file failed an
// operation. It refuses results from different hosts.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: benchmark compare BASE.json CANDIDATE.json")
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	base, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	cand, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	if !sameHost(base.Host, cand.Host) {
		return fmt.Errorf("host blocks differ, results are not comparable:\n  %+v\n  %+v", base.Host, cand.Host)
	}
	bad := 0
	for _, f := range []resultFile{base, cand} {
		for _, r := range f.Runs {
			if r.Failed > 0 {
				fmt.Printf("%s (seed %d): %d of %d operations failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				bad++
			}
		}
	}
	fmt.Printf("%-18s %-22s %13s %13s %8s %8s %7s  %s\n",
		"workload", "metric", "base", "candidate", "worse", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, s := range sp.EndToEnd {
			b, c := base.values(w.Name, s.Name), cand.values(w.Name, s.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			verdict, worse, spr := judge(b, c, s)
			if verdict != verdictOK {
				bad++
			}
			fmt.Printf("%-18s %-22s %13.6g %13.6g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				w.Name, s.Name, median(b), median(c), 100*worse, 100*spr, 100*s.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, unresolved or failed", bad)
	}
	return nil
}
