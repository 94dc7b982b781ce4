package main

import (
	"fmt"
	"io"
	"log"
)

// obsFlags are the observability outputs. Any of them traces the run; the
// process holding rank 0 — the in-process run, or a multi-process run's
// rank-0 worker — writes the files.
type obsFlags struct {
	tracePath     string
	metricsOut    string
	promSnapshot  string
	stragglerMult float64
}

func (o obsFlags) on() bool {
	return o.tracePath != "" || o.metricsOut != "" || o.promSnapshot != ""
}

// fleetView is what rank 0 exports: a bonsai.Simulation, or rank 0's
// bonsai.NodeSimulation.
type fleetView interface {
	WriteChromeTrace(w io.Writer) error
	WriteMetricsJSONL(w io.Writer) error
	WriteProm(w io.Writer) error
	WatchStragglers(mult float64, logf func(format string, args ...any)) error
}

// start arms the fleet view's straggler watchdog.
func (o obsFlags) start(v fleetView) {
	if err := v.WatchStragglers(o.stragglerMult, log.Printf); err != nil {
		log.Fatal(err)
	}
}

// write writes the requested output files.
func (o obsFlags) write(v fleetView) {
	for _, out := range []struct {
		path, what, hint string
		write            func(io.Writer) error
	}{
		{o.tracePath, "trace", "open in https://ui.perfetto.dev", v.WriteChromeTrace},
		{o.metricsOut, "metrics", "summarize with tracestats -metrics", v.WriteMetricsJSONL},
		{o.promSnapshot, "prometheus snapshot", "check with tracestats -prom", v.WriteProm},
	} {
		if out.path == "" {
			continue
		}
		if err := writeFileWith(out.path, out.write); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s -> %s (%s)\n", out.what, out.path, out.hint)
	}
}
