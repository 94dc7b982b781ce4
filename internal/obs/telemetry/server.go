// Package telemetry is the distributed observability plane of the tree-code:
// each worker process serves its recorder state (spans, per-step metrics,
// histograms, pair-byte rows, pprof) over a small HTTP listener, and the
// launcher runs a Collector that estimates each worker's clock offset with
// round-trip pings against the recorder epoch, scrapes the workers during the
// run, feeds an online straggler watchdog, exposes a live Prometheus
// /metrics endpoint, and merges everything into one clock-aligned Chrome
// trace plus one combined JSONL stream after the run.
package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bonsai/internal/obs"
)

// ServerConfig describes one worker's telemetry surface.
type ServerConfig struct {
	Rec       *obs.Recorder
	Rank      int
	Ranks     int
	KernelISA string
	// PairBytes reports the worker's cumulative wire bytes sent to each peer
	// rank (the mpi.World PairBytes row). Nil when the transport does not
	// track traffic.
	PairBytes func(to int) int64
}

// clockReply is the /clock payload the collector's offset estimator pings.
type clockReply struct {
	NowNS  int64 `json:"now_ns"`  // recorder-epoch-relative, the span timebase
	UnixNS int64 `json:"unix_ns"` // wall clock, for diagnostics only
}

// infoReply is the /info payload.
type infoReply struct {
	Rank      int    `json:"rank"`
	Ranks     int    `json:"ranks"`
	KernelISA string `json:"kernel_isa"`
}

// doneReply is the /done payload.
type doneReply struct {
	Done bool `json:"done"`
}

// Server serves one worker's telemetry over HTTP. It also implements the
// end-of-run shutdown gate: the worker calls MarkDone when its steps finish
// and blocks in WaitShutdown until the collector has scraped the final state
// and POSTed /shutdown — without the gate the worker would exit (taking its
// span buffers with it) while the collector is mid-scrape.
type Server struct {
	cfg ServerConfig
	srv *http.Server
	ln  net.Listener

	done     atomic.Bool
	shutOnce sync.Once
	shutdown chan struct{}
}

// Serve starts serving telemetry on the listener (owned by the server from
// here on; Close closes it).
func Serve(ln net.Listener, cfg ServerConfig) *Server {
	s := &Server{cfg: cfg, ln: ln, shutdown: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/clock", s.handleClock)
	mux.HandleFunc("/info", s.handleInfo)
	mux.HandleFunc("/done", s.handleDone)
	mux.HandleFunc("/spans", s.handleSpans)
	mux.HandleFunc("/steps", s.handleSteps)
	mux.HandleFunc("/hists", s.handleHists)
	mux.HandleFunc("/pair", s.handlePair)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/shutdown", s.handleShutdown)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	return s
}

// Addr returns the listener address the server is reachable on.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// MarkDone flags the worker's simulation as finished; the collector polls
// /done and runs its final scrape once every rank reports done.
func (s *Server) MarkDone() { s.done.Store(true) }

// WaitShutdown blocks until the collector releases the worker via POST
// /shutdown, or the timeout elapses (a crashed collector must not wedge the
// worker forever). Reports whether the release arrived in time.
func (s *Server) WaitShutdown(timeout time.Duration) bool {
	select {
	case <-s.shutdown:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Close stops the HTTP server and listener.
func (s *Server) Close() error { return s.srv.Close() }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best-effort reply
}

func (s *Server) handleClock(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, clockReply{NowNS: s.cfg.Rec.Now(), UnixNS: time.Now().UnixNano()})
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, infoReply{Rank: s.cfg.Rank, Ranks: s.cfg.Ranks, KernelISA: s.cfg.KernelISA})
}

func (s *Server) handleDone(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, doneReply{Done: s.done.Load()})
}

// handleSpans serves the worker's populated rank tracks (a Node records only
// its own rank, so normally exactly one). Spans are snapshotted through the
// atomic cursor; the authoritative scrape happens after MarkDone when the
// rank's recording goroutines have been joined.
func (s *Server) handleSpans(w http.ResponseWriter, _ *http.Request) {
	var tracks []obs.RankTrack
	for _, tr := range s.cfg.Rec.Tracks() {
		if len(tr.Spans) > 0 || tr.Dropped > 0 {
			tracks = append(tracks, tr)
		}
	}
	writeJSON(w, tracks)
}

// handleSteps serves the per-step metrics stream as JSONL, starting at the
// record index in ?from=N so the collector scrapes incrementally.
func (s *Server) handleSteps(w http.ResponseWriter, r *http.Request) {
	steps := s.cfg.Rec.Steps()
	if v := r.URL.Query().Get("from"); v != "" {
		from, err := strconv.Atoi(v)
		if err != nil || from < 0 {
			http.Error(w, "bad from", http.StatusBadRequest)
			return
		}
		if from > len(steps) {
			from = len(steps)
		}
		steps = steps[from:]
	}
	w.Header().Set("Content-Type", "application/jsonl")
	obs.WriteStepMetricsJSONL(w, steps) //nolint:errcheck // best-effort reply
}

func (s *Server) handleHists(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.cfg.Rec.Metrics().Snapshot())
}

// handlePair serves the worker's outgoing byte counts, one entry per peer.
func (s *Server) handlePair(w http.ResponseWriter, _ *http.Request) {
	row := make([]int64, s.cfg.Ranks)
	if s.cfg.PairBytes != nil {
		for to := range row {
			row[to] = s.cfg.PairBytes(to)
		}
	}
	writeJSON(w, row)
}

// handleMetrics serves the worker's own latest step in Prometheus text
// exposition format — the launcher's /metrics is the fleet view; this one is
// for scraping a single worker directly.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	pw := newPromWriter(w)
	pw.gauge("bonsai_up", "1 while the worker telemetry endpoint is live", nil, 1)
	steps := s.cfg.Rec.Steps()
	if len(steps) > 0 {
		writeStepProm(pw, &steps[len(steps)-1], s.cfg.Rank)
	}
	writeHistProm(pw, s.cfg.Rank, s.cfg.Rec.Metrics().Snapshot())
	pw.flush() //nolint:errcheck // best-effort reply
}

func (s *Server) handleShutdown(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.shutOnce.Do(func() { close(s.shutdown) })
	fmt.Fprintln(w, "ok")
}
