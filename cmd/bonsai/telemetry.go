package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"path/filepath"
)

// obsFlags are the observability outputs. Any of them traces the run; the
// process holding rank 0 — the in-process run, or a multi-process run's
// rank-0 worker — serves -expvar and writes the files.
type obsFlags struct {
	tracePath     string
	metricsOut    string
	expvarAddr    string
	promSnapshot  string
	stragglerMult float64
}

func (o obsFlags) on() bool {
	return o.tracePath != "" || o.metricsOut != "" || o.expvarAddr != "" || o.promSnapshot != ""
}

// fleetView is what rank 0 exports: a bonsai.Simulation, or rank 0's
// bonsai.NodeSimulation.
type fleetView interface {
	WriteChromeTrace(w io.Writer) error
	WriteMetricsJSONL(w io.Writer) error
	WriteProm(w io.Writer) error
	WatchStragglers(mult float64, logf func(format string, args ...any)) error
	PublishExpvar() error
}

// start publishes the fleet view's expvar, arms its straggler watchdog and,
// with -expvar, serves the live Prometheus /metrics beside the stdlib debug
// handlers.
func (o obsFlags) start(v fleetView) {
	if err := v.PublishExpvar(); err != nil {
		log.Fatal(err)
	}
	if err := v.WatchStragglers(o.stragglerMult, log.Printf); err != nil {
		log.Fatal(err)
	}
	if o.expvarAddr == "" {
		return
	}
	ln, err := net.Listen("tcp", o.expvarAddr)
	if err != nil {
		log.Printf("live metrics: %v", err)
		return
	}
	serveHTTP(ln, v.WriteProm)
	fmt.Printf("live metrics: http://%s/metrics (expvar /debug/vars, pprof /debug/pprof)\n", ln.Addr())
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

// serveHTTP serves the stdlib debug handlers on ln — net/http/pprof's
// /debug/pprof/ and expvar's /debug/vars — and, when metrics is non-nil, the
// fleet view's Prometheus /metrics.
func serveHTTP(ln net.Listener, metrics func(io.Writer) error) {
	mux := http.NewServeMux()
	mux.Handle("/", http.DefaultServeMux)
	if metrics != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			metrics(w) //nolint:errcheck // best-effort reply
		})
	}
	go http.Serve(ln, mux) //nolint:errcheck // serves until process exit
}

// debugAddrs returns every rank's debug listen address, deterministic from
// the shared flags exactly like rankAddrs.
func (lc *launchConfig) debugAddrs() []string {
	addrs := make([]string, lc.ranks)
	for r := range addrs {
		switch lc.transport {
		case "tcp":
			addrs[r] = fmt.Sprintf("127.0.0.1:%d", lc.telePortBase+r)
		case "unix":
			addrs[r] = filepath.Join(lc.sockDir, fmt.Sprintf("tele%d.sock", r))
		}
	}
	return addrs
}
