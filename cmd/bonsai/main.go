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
	"fmt"
	"io"
	"log"
	"net/http"
	"os"

	"bonsai"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bonsai: ")

	var (
		model      = flag.String("model", "milkyway", "initial model: milkyway or plummer (ignored with -restore)")
		n          = flag.Int("n", 50_000, "number of particles")
		seed       = flag.Int64("seed", 42, "random seed")
		restore    = flag.String("restore", "", "restart from this snapshot instead of generating ICs")
		ranks      = flag.Int("ranks", 4, "simulated MPI ranks (one modeled GPU each)")
		workers    = flag.Int("workers", 0, "compute workers per rank (0 = auto)")
		theta      = flag.Float64("theta", 0.4, "opening angle (paper: 0.4)")
		eps        = flag.Float64("eps", 0, "softening in kpc (0 = paper's N^-1/3 scaling)")
		dt         = flag.Float64("dt", 0, "time step (0 = softening-based minimum, paper §VI.C)")
		blockSteps = flag.Bool("block-steps", false, "hierarchical block timesteps: per-particle dt = dt/2^k from the acceleration criterion")
		maxRungs   = flag.Int("max-rungs", 4, "block timesteps: maximum hierarchy depth (dt/2^max-rungs is the finest step)")
		etaDT      = flag.Float64("eta-dt", 0.1, "block timesteps: accuracy parameter of dt_i = eta*sqrt(eps/|a_i|)")
		serialLET  = flag.Bool("serial-let", false, "disable communication/compute overlap in the gravity phase (deterministic baseline)")
		steps      = flag.Int("steps", 64, "number of leapfrog steps")
		snapEvery  = flag.Int("snap-every", 0, "snapshot interval in steps (0 = none)")
		snapPrefix = flag.String("snap-prefix", "snap", "snapshot filename prefix")
		quiet      = flag.Bool("q", false, "suppress per-step output")
		tracePath  = flag.String("trace", "", "write a Chrome trace-event JSON timeline here (open in Perfetto); with a socket transport this is the clock-aligned merge of all worker processes")
		metricsOut = flag.String("metrics", "", "write per-step JSONL metrics here (analyze with tracestats -metrics)")
		expvarAddr = flag.String("expvar", "", "serve live metrics on this address (e.g. :6060): /debug/vars, and with a socket transport also Prometheus /metrics and pprof")

		promSnapshot  = flag.String("prom-snapshot", "", "socket transports: write a final Prometheus text-format snapshot here")
		stragglerMult = flag.Float64("straggler-mult", 2.0, "socket transports: alert when a rank's step time exceeds this multiple of the cross-rank median")
		telePortBase  = flag.Int("tele-port-base", 29600, "tcp transport: rank r serves telemetry on 127.0.0.1:(tele-port-base+r)")

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

	f := simFlags{
		model: *model, n: *n, seed: *seed, restore: *restore,
		ranks: *ranks, workers: *workers, theta: *theta, eps: *eps, dt: *dt,
		blockSteps: *blockSteps, maxRungs: *maxRungs, etaDT: *etaDT,
		serialLET: *serialLET,
		steps:     *steps, snapEvery: *snapEvery, snapPrefix: *snapPrefix, quiet: *quiet,
	}
	switch *transport {
	case "chan":
		if *promSnapshot != "" {
			log.Fatal("-prom-snapshot requires -transport unix or tcp (the launcher's collector writes it)")
		}
		runInProcess(f, *tracePath, *metricsOut, *expvarAddr)
	case "unix", "tcp":
		lc := launchConfig{
			transport:   *transport,
			ranks:       *ranks,
			ckptEvery:   *ckptEvery,
			ckptDir:     *ckptDir,
			portBase:    *portBase,
			maxRestarts: *maxRestarts,
			sockDir:     *sockDir,

			tracePath:     *tracePath,
			metricsOut:    *metricsOut,
			expvarAddr:    *expvarAddr,
			promSnapshot:  *promSnapshot,
			stragglerMult: *stragglerMult,
			telePortBase:  *telePortBase,
		}
		if *workerRank >= 0 {
			runWorker(lc, *workerRank, f)
		} else {
			runLauncher(lc)
		}
	default:
		log.Fatalf("unknown transport %q (want chan, unix or tcp)", *transport)
	}
}

// runInProcess hosts every rank in this process, one goroutine each.
func runInProcess(f simFlags, tracePath, metricsOut, expvarAddr string) {
	r := newRun(f, tracePath != "" || metricsOut != "" || expvarAddr != "")
	s, err := bonsai.New(r.cfg, r.parts)
	if err != nil {
		log.Fatal(err)
	}
	if expvarAddr != "" {
		if err := s.PublishExpvar(); err != nil {
			log.Fatal(err)
		}
		go func() {
			if err := http.ListenAndServe(expvarAddr, nil); err != nil {
				log.Printf("expvar server: %v", err)
			}
		}()
		fmt.Printf("live metrics: http://%s/debug/vars\n", expvarAddr)
	}
	r.printHeader("in-process")

	r.loop(s, true, r.restore != "", s.Particles, nil)

	if tracePath != "" {
		if err := writeFileWith(tracePath, s.WriteChromeTrace); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace -> %s (open in https://ui.perfetto.dev)\n", tracePath)
	}
	if metricsOut != "" {
		if err := writeFileWith(metricsOut, s.WriteMetricsJSONL); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics -> %s (summarize with tracestats -metrics)\n", metricsOut)
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
