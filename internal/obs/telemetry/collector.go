package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"bonsai/internal/obs"
)

// Client talks to one worker telemetry server. The base URL is a fixed
// placeholder host; the transport dials the configured (network, address)
// pair instead, which is how plain HTTP runs over unix-domain sockets.
type Client struct {
	hc   *http.Client
	addr string
}

// NewClient returns a client for one worker endpoint. network is "unix" or
// "tcp" (any net.Dial network works).
func NewClient(network, addr string) *Client {
	return &Client{
		addr: addr,
		hc: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
					var d net.Dialer
					return d.DialContext(ctx, network, addr)
				},
			},
		},
	}
}

func (c *Client) get(path string, v any) error {
	resp, err := c.hc.Get("http://worker" + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("telemetry: %s: %s", path, resp.Status)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			return err
		}
	}
	// Drain to EOF so the keep-alive connection is reused; a fresh dial per
	// scrape would churn ports (tcp) and fds (unix) for no reason.
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	return nil
}

// Clock returns the worker recorder's current epoch-relative nanoseconds.
func (c *Client) Clock() (int64, error) {
	var cr clockReply
	if err := c.get("/clock", &cr); err != nil {
		return 0, err
	}
	return cr.NowNS, nil
}

// Info returns the worker's identity.
func (c *Client) Info() (rank, ranks int, kernelISA string, err error) {
	var ir infoReply
	if err := c.get("/info", &ir); err != nil {
		return 0, 0, "", err
	}
	return ir.Rank, ir.Ranks, ir.KernelISA, nil
}

// Done reports whether the worker's simulation has finished its steps.
func (c *Client) Done() (bool, error) {
	var dr doneReply
	if err := c.get("/done", &dr); err != nil {
		return false, err
	}
	return dr.Done, nil
}

// Steps fetches the worker's step records starting at index from.
func (c *Client) Steps(from int) ([]obs.StepMetrics, error) {
	resp, err := c.hc.Get(fmt.Sprintf("http://worker/steps?from=%d", from))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("telemetry: /steps: %s", resp.Status)
	}
	return obs.ReadMetricsJSONL(resp.Body)
}

// Spans fetches the worker's populated span tracks.
func (c *Client) Spans() ([]obs.RankTrack, error) {
	var tracks []obs.RankTrack
	err := c.get("/spans", &tracks)
	return tracks, err
}

// Hists fetches the worker's histogram snapshots.
func (c *Client) Hists() ([]obs.HistSnapshot, error) {
	var hs []obs.HistSnapshot
	err := c.get("/hists", &hs)
	return hs, err
}

// Pair fetches the worker's outgoing-bytes row.
func (c *Client) Pair() ([]int64, error) {
	var row []int64
	err := c.get("/pair", &row)
	return row, err
}

// Shutdown releases the worker's end-of-run gate.
func (c *Client) Shutdown() error {
	resp, err := c.hc.Post("http://worker/shutdown", "text/plain", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("telemetry: /shutdown: %s", resp.Status)
	}
	return nil
}

// CollectorConfig configures the launcher-side collector.
type CollectorConfig struct {
	Network       string   // "unix" or "tcp"
	Addrs         []string // one worker telemetry address per rank, indexed by rank
	StragglerMult float64  // watchdog threshold; <= 1 selects DefaultStragglerMult
	Logf          func(format string, args ...any)
	PollEvery     time.Duration // scrape cadence; <= 0 selects 250ms
	ClockProbes   int           // round-trip pings per offset estimate; <= 0 selects 16
	AwaitUp       time.Duration // how long to wait for workers to start serving; <= 0 selects 30s
}

// Collector scrapes a fleet of worker telemetry servers: it aligns their
// recorder clocks against its own epoch, streams step records into the
// straggler watchdog during the run, and after every worker reports done it
// re-syncs the clocks, takes the final span/histogram/pair-byte scrape, and
// releases the workers' shutdown gates.
type Collector struct {
	cfg      CollectorConfig
	epoch    time.Time
	clients  []*Client
	watchdog *Watchdog

	mu       sync.Mutex
	synced   bool
	offsets  []int64 // worker recorder ns + offset = collector-epoch ns
	uncerts  []int64 // ± bound of each offset (half the best round-trip)
	nextFrom []int
	steps    []obs.StepMetrics
	latest   []*obs.StepMetrics
	tracks   [][]obs.RankTrack
	hists    [][]obs.HistSnapshot
	pair     [][]int64
}

// NewCollector builds a collector; Run does the work.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 250 * time.Millisecond
	}
	if cfg.ClockProbes <= 0 {
		cfg.ClockProbes = 16
	}
	if cfg.AwaitUp <= 0 {
		cfg.AwaitUp = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	n := len(cfg.Addrs)
	c := &Collector{
		cfg:      cfg,
		epoch:    time.Now(),
		clients:  make([]*Client, n),
		watchdog: NewWatchdog(n, cfg.StragglerMult, cfg.Logf),
		offsets:  make([]int64, n),
		uncerts:  make([]int64, n),
		nextFrom: make([]int, n),
		latest:   make([]*obs.StepMetrics, n),
		tracks:   make([][]obs.RankTrack, n),
		hists:    make([][]obs.HistSnapshot, n),
		pair:     make([][]int64, n),
	}
	for i, addr := range cfg.Addrs {
		c.clients[i] = NewClient(cfg.Network, addr)
	}
	return c
}

// now is the collector-epoch-relative clock all offsets map onto.
func (c *Collector) now() int64 { return time.Since(c.epoch).Nanoseconds() }

// Watchdog exposes the online straggler detector (for alert inspection).
func (c *Collector) Watchdog() *Watchdog { return c.watchdog }

// awaitUp blocks until every worker answers /clock (they fork at slightly
// different times) or the deadline passes.
func (c *Collector) awaitUp(ctx context.Context) error {
	deadline := time.Now().Add(c.cfg.AwaitUp)
	for rank, cl := range c.clients {
		for {
			if _, err := cl.Clock(); err == nil {
				break
			} else if time.Now().After(deadline) {
				return fmt.Errorf("telemetry: rank %d endpoint never came up: %w", rank, err)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
	return nil
}

// syncClocks runs the NTP-style offset estimate against every worker: probe
// i sends t0 = collector now, reads w = worker now, reads t1 = collector now;
// assuming the worker sampled midway, offset = (t0+t1)/2 − w with uncertainty
// half the round trip. The minimum-RTT probe of the batch wins — queueing
// delays only ever inflate the RTT, so the tightest round trip is the most
// trustworthy sample.
func (c *Collector) syncClocks() error {
	offsets := make([]int64, len(c.clients))
	uncerts := make([]int64, len(c.clients))
	for rank, cl := range c.clients {
		bestRTT := int64(-1)
		for p := 0; p < c.cfg.ClockProbes; p++ {
			t0 := c.now()
			w, err := cl.Clock()
			t1 := c.now()
			if err != nil {
				return fmt.Errorf("telemetry: clock probe rank %d: %w", rank, err)
			}
			if rtt := t1 - t0; bestRTT < 0 || rtt < bestRTT {
				bestRTT = rtt
				offsets[rank] = (t0+t1)/2 - w
				uncerts[rank] = rtt / 2
			}
		}
	}
	c.mu.Lock()
	c.offsets, c.uncerts, c.synced = offsets, uncerts, true
	c.mu.Unlock()
	return nil
}

// MaxUncertainty returns the worst per-rank offset uncertainty of the latest
// sync — the reported bound on residual cross-rank skew.
func (c *Collector) MaxUncertainty() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var max int64
	for _, u := range c.uncerts {
		if u > max {
			max = u
		}
	}
	return time.Duration(max)
}

// Offsets returns the latest per-rank offset estimates (collector-epoch ns).
func (c *Collector) Offsets() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.offsets...)
}

// scrapeSteps pulls new step records from every worker, feeds the watchdog,
// and tracks the latest record per rank. Worker errors are returned but the
// records already scraped are kept.
func (c *Collector) scrapeSteps() error {
	var firstErr error
	for rank, cl := range c.clients {
		c.mu.Lock()
		from := c.nextFrom[rank]
		c.mu.Unlock()
		steps, err := cl.Steps(from)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("telemetry: steps scrape rank %d: %w", rank, err)
			}
			continue
		}
		if len(steps) == 0 {
			continue
		}
		c.mu.Lock()
		c.nextFrom[rank] += len(steps)
		c.steps = append(c.steps, steps...)
		last := steps[len(steps)-1]
		c.latest[rank] = &last
		c.mu.Unlock()
		for _, m := range steps {
			c.watchdog.Record(m)
		}
	}
	return firstErr
}

// scrapeFinal takes the authoritative end-of-run snapshot: spans, histograms,
// and pair-byte rows from every worker (their recording goroutines are joined
// once /done reports true).
func (c *Collector) scrapeFinal() error {
	for rank, cl := range c.clients {
		tracks, err := cl.Spans()
		if err != nil {
			return fmt.Errorf("telemetry: span scrape rank %d: %w", rank, err)
		}
		hists, err := cl.Hists()
		if err != nil {
			return fmt.Errorf("telemetry: hist scrape rank %d: %w", rank, err)
		}
		pair, err := cl.Pair()
		if err != nil {
			return fmt.Errorf("telemetry: pair scrape rank %d: %w", rank, err)
		}
		c.mu.Lock()
		c.tracks[rank] = tracks
		c.hists[rank] = hists
		c.pair[rank] = pair
		c.mu.Unlock()
	}
	return nil
}

// ReleaseAll opens every worker's shutdown gate. Safe to call repeatedly;
// unreachable workers are skipped (they fall back to their gate timeout).
func (c *Collector) ReleaseAll() {
	for _, cl := range c.clients {
		cl.Shutdown() //nolint:errcheck // best-effort release
	}
}

// Run drives the collection: wait for the fleet, sync clocks, poll step
// records and /done until every worker finishes, then re-sync clocks and take
// the final scrape. The workers' shutdown gates are always released on the
// way out, success or not.
func (c *Collector) Run(ctx context.Context) error {
	defer c.ReleaseAll()
	if err := c.awaitUp(ctx); err != nil {
		return err
	}
	if err := c.syncClocks(); err != nil {
		return err
	}
	c.cfg.Logf("telemetry: clocks synced across %d ranks, max uncertainty %v",
		len(c.clients), c.MaxUncertainty())

	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(c.cfg.PollEvery):
		}
		if err := c.scrapeSteps(); err != nil {
			c.cfg.Logf("%v", err)
		}
		allDone := true
		for _, cl := range c.clients {
			done, err := cl.Done()
			if err != nil || !done {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
	}

	// Re-estimate offsets at end of run: the final estimate brackets the
	// whole trace, and monotonic-clock drift over a short run is far below
	// the probe uncertainty.
	if err := c.syncClocks(); err != nil {
		return err
	}
	if err := c.scrapeSteps(); err != nil {
		return err
	}
	if err := c.scrapeFinal(); err != nil {
		return err
	}
	c.cfg.Logf("telemetry: final clock sync: max residual skew bound %v", c.MaxUncertainty())
	return nil
}

// mergedTracks aligns every scraped span track on the collector clock: each
// rank's spans shift by that rank's offset, then the whole trace shifts so
// the earliest span lands at t=0 (Chrome trace viewers dislike huge absolute
// timestamps).
func (c *Collector) mergedTracks() []obs.RankTrack {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []obs.RankTrack
	base := int64(0)
	haveBase := false
	for rank, tracks := range c.tracks {
		for _, tr := range tracks {
			if len(tr.Spans) == 0 {
				continue
			}
			first := tr.Spans[0].Start
			for _, s := range tr.Spans {
				if s.Start < first {
					first = s.Start
				}
			}
			if shifted := first + c.offsets[rank]; !haveBase || shifted < base {
				base, haveBase = shifted, true
			}
		}
	}
	for rank, tracks := range c.tracks {
		for _, tr := range tracks {
			tr.ShiftNS = c.offsets[rank] - base
			out = append(out, tr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// WriteMergedTrace writes the clock-aligned union of every worker's spans as
// one Chrome trace: one Perfetto process track per rank, common timebase.
func (c *Collector) WriteMergedTrace(w io.Writer) error {
	return obs.WriteChromeTraceTracks(w, c.mergedTracks())
}

// WriteMergedJSONL writes every scraped step record as one combined stream,
// ordered by (step, rank).
func (c *Collector) WriteMergedJSONL(w io.Writer) error {
	c.mu.Lock()
	steps := append([]obs.StepMetrics(nil), c.steps...)
	c.mu.Unlock()
	sort.SliceStable(steps, func(i, j int) bool {
		if steps[i].Step != steps[j].Step {
			return steps[i].Step < steps[j].Step
		}
		return steps[i].Rank < steps[j].Rank
	})
	return obs.WriteStepMetricsJSONL(w, steps)
}

// Steps returns a copy of every step record scraped so far.
func (c *Collector) Steps() []obs.StepMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.StepMetrics(nil), c.steps...)
}
