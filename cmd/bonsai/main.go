// Command bonsai runs a distributed gravitational tree-code simulation: the
// reproduction of the paper's production runs at laptop scale.
//
// Examples:
//
//	# 100k-particle Milky Way on 4 simulated ranks, 100 steps
//	bonsai -model milkyway -n 100000 -ranks 4 -steps 100
//
//	# resume from a snapshot and store snapshots every 50 steps (any transport)
//	bonsai -restore mw.snap -steps 500 -snap-every 50 -snap-prefix mw
//
//	# real multi-process run: 4 worker processes over unix sockets, with
//	# periodic distributed checkpoints — a SIGKILLed worker is restarted
//	# from the last checkpoint automatically
//	bonsai -transport unix -ranks 4 -steps 100 -ckpt-every 16
//
// Per-step output mirrors the paper's Table II phases.
package main

import (
	"flag"
	"io"
	"log"
	"os"

	"bonsai"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bonsai: ")

	var (
		model      = flag.String("model", "milkyway", "initial model: milkyway or plummer (with -restore: the snapshot's units, plummer for model units)")
		n          = flag.Int("n", 50_000, "number of particles")
		seed       = flag.Int64("seed", 42, "random seed")
		restore    = flag.String("restore", "", "restart from this snapshot instead of generating ICs")
		ranks      = flag.Int("ranks", 4, "simulated MPI ranks (one modeled GPU each)")
		workers    = flag.Int("workers", 0, "compute workers per rank (0 = auto)")
		theta      = flag.Float64("theta", 0.4, "opening angle (paper: 0.4)")
		eps        = flag.Float64("eps", 0, "softening in kpc (0 = paper's N^-1/3 scaling)")
		dt         = flag.Float64("dt", 0, "time step (0 = softening-based minimum, paper §VI.C)")
		maxRungs   = flag.Int("max-rungs", 0, "hierarchical block timesteps: per-particle dt = dt/2^k, k <= max-rungs, from the acceleration criterion (0 = one shared step)")
		etaDT      = flag.Float64("eta-dt", 0.1, "block timesteps: accuracy parameter of dt_i = eta*sqrt(eps/|a_i|)")
		steps      = flag.Int("steps", 64, "number of leapfrog steps")
		snapEvery  = flag.Int("snap-every", 0, "snapshot interval in steps (0 = none)")
		snapPrefix = flag.String("snap-prefix", "snap", "snapshot filename prefix")
		quiet      = flag.Bool("q", false, "suppress per-step output")
		tracePath  = flag.String("trace", "", "write a Chrome trace-event JSON timeline here (open in Perfetto); with a socket transport this is the clock-aligned merge of all worker processes")
		metricsOut = flag.String("metrics", "", "write per-step JSONL metrics here (analyze with tracestats -metrics)")

		promSnapshot = flag.String("prom-snapshot", "", "write a final Prometheus text-format snapshot of the fleet view here")

		transport   = flag.String("transport", "chan", "rank transport: chan (in-process goroutines), unix or tcp (one OS process per rank)")
		ckptEvery   = flag.Int("ckpt-every", 16, "steps between distributed checkpoints (socket transports; 0 = none)")
		ckptDir     = flag.String("ckpt-dir", "", "checkpoint directory (default: a fresh directory under the system temp dir)")
		portBase    = flag.Int("port-base", 28600, "tcp transport: rank r listens on 127.0.0.1:(port-base+r)")
		maxRestarts = flag.Int("max-restarts", 3, "restarts of the worker team after a crash before giving up")

		// Internal flags the launcher passes to the worker processes it forks.
		workerRank = flag.Int("worker-rank", -1, "internal: run as the worker for this rank")
		sockDir    = flag.String("sock-dir", "", "internal: directory holding the unix socket files")
	)
	flag.Parse()
	if *n < 1 || *ranks < 1 {
		log.Printf("-n %d, -ranks %d: both must be at least 1", *n, *ranks)
		flag.Usage()
		os.Exit(2)
	}

	f := simFlags{
		model: *model, n: *n, seed: *seed, restore: *restore,
		ranks: *ranks, workers: *workers, theta: *theta, eps: *eps, dt: *dt,
		maxRungs: *maxRungs, etaDT: *etaDT,
		steps: *steps, snapEvery: *snapEvery, snapPrefix: *snapPrefix, quiet: *quiet,
	}
	o := obsFlags{
		tracePath: *tracePath, metricsOut: *metricsOut,
		promSnapshot: *promSnapshot,
	}
	// Checked once here, before the launcher forks a team that could not
	// start: nothing Validate checks depends on the particle count.
	if err := f.config(f.n, false).Validate(); err != nil {
		log.Fatal(err)
	}
	switch *transport {
	case "chan":
		runInProcess(f, o)
	case "unix", "tcp":
		lc := launchConfig{
			transport:   *transport,
			ranks:       *ranks,
			ckptEvery:   *ckptEvery,
			ckptDir:     *ckptDir,
			portBase:    *portBase,
			maxRestarts: *maxRestarts,
			sockDir:     *sockDir,
			obs:         o,
		}
		if *workerRank >= 0 {
			runWorker(lc, *workerRank, f)
		} else if err := runLauncher(lc); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown transport %q (want chan, unix or tcp)", *transport)
	}
}

// runInProcess hosts every rank in this process, one goroutine each.
func runInProcess(f simFlags, o obsFlags) {
	r := newRun(f, o.on())
	s, err := bonsai.New(r.cfg, r.parts)
	if err != nil {
		log.Fatal(err)
	}
	r.printHeader("in-process")

	r.loop(s, true, s.Particles, nil)

	if o.on() {
		o.write(s)
	}

	k, p := s.Energy()
	r.printDone(s.Time(), k, p, "comm", s.CommBytes())
}

// writeFileWith creates path and streams an exporter into it.
func writeFileWith(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
