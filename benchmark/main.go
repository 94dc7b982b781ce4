// Command benchmark is the repository's one end-to-end benchmark: four
// workloads, step time at a stated force accuracy, and a per-layer traced run
// whose replayed evaluation sums to the step. See README.md.
//
//	go run ./benchmark run [-workload W] [-seed S] [-seconds T] [-trace 0|1] [-repeat K] [-out FILE]
//	go run ./benchmark compare A.json B.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// outDir holds everything a run leaves behind; it is git-ignored.
const outDir = "benchmark/out"

// childTimeout keeps one workload process inside the contract's 180 s.
const childTimeout = 170 * time.Second

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark run|compare ...")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "child":
		err = cmdChild(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	default:
		err = fmt.Errorf("unknown command %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runFlags are shared by run and the child it execs per workload.
type runFlags struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

func (f *runFlags) register(fs *flag.FlagSet, sp *spec) {
	fs.StringVar(&f.workload, "workload", "", "workload to run (default: all)")
	fs.Int64Var(&f.seed, "seed", defaultSeed, fmt.Sprintf("seed of every input generator (%d is held out to verify claims)", heldOutSeed))
	fs.IntVar(&f.seconds, "seconds", sp.RunSeconds, "run length: 5 timed steps per second, 1 in a traced run")
	fs.IntVar(&f.trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
}

// cmdRun runs each selected workload in its own freshly exec'd process with
// GOMAXPROCS=2, prints every metric by name, and writes the result file. The
// last line of standard output is the last run's contract object.
func cmdRun(args []string) error {
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	var f runFlags
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	f.register(fs, sp)
	traced := fs.Bool("traced", false, "same as -trace 1")
	repeat := fs.Int("repeat", 1, "run the workloads this many times, interleaved, and report the spread")
	out := fs.String("out", "", "result file (default "+outDir+"/results[.traced].json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traced {
		f.trace = 1
	}
	var names []string
	for _, w := range workloads {
		if f.workload == "" || f.workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", f.workload)
	}
	if *out == "" {
		*out = filepath.Join(outDir, "results.json")
		if f.trace == 1 {
			*out = filepath.Join(outDir, "results.traced.json")
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	file := resultFile{Host: readHost()}
	var last []byte
	for rep := 0; rep < *repeat; rep++ {
		for _, name := range names {
			line, err := runChild(self, f, name)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			var oc outcome
			if err := json.Unmarshal(line, &oc); err != nil {
				return fmt.Errorf("%s: result line: %w", name, err)
			}
			file.Runs = append(file.Runs, runResult{
				Workload: name, Seed: f.seed, Seconds: f.seconds, Traced: f.trace == 1, outcome: oc,
			})
			printRun(name, oc, sp.metrics(f.trace == 1))
			last = line
		}
	}
	if *repeat > 1 {
		printSpread(file, sp.metrics(f.trace == 1))
	}
	if err := file.write(*out); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", *out)
	_, err = fmt.Printf("%s\n", last)
	return err
}

// runChild runs one workload in a fresh process and returns the last line of
// its standard output. The process is killed at childTimeout and always
// waited for.
func runChild(self string, f runFlags, name string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "child",
		"-workload", name, "-seed", strconv.FormatInt(f.seed, 10),
		"-seconds", strconv.Itoa(f.seconds), "-trace", strconv.Itoa(f.trace))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(pinnedProcs))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if len(last) == 0 {
		return nil, errors.New("no result line")
	}
	return last, nil
}

// cmdChild measures one workload in this process and prints its contract
// object.
func cmdChild(args []string) error {
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	var f runFlags
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	f.register(fs, sp)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(f.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", f.workload)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	var m *metricSet
	if f.trace == 1 {
		size := runSize{Steps: max(2, f.seconds), Replays: 3}
		m, err = runPerLayer(w, f.seed, size, scratch, filepath.Join(outDir, w.Name+".trace.json"))
	} else {
		m, err = runEndToEnd(w, f.seed, runSize{Steps: max(2, 5*f.seconds)}, scratch)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(m.outcome(sp.metrics(f.trace == 1)))
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

func printRun(name string, oc outcome, specs []metricSpec) {
	fmt.Printf("%s: correct=%v ops_attempted=%d ops_failed=%d\n", name, oc.Correct, oc.Attempted, oc.Failed)
	for _, s := range specs {
		fmt.Printf("  %-28s %14.6g %s\n", s.Name, oc.Metrics[s.Name].Value, s.Unit)
	}
}

// printSpread reports, per workload and metric, the median and quartiles over
// the repeats and their distance as a share of the median: the noise floor.
func printSpread(file resultFile, specs []metricSpec) {
	fmt.Println("spread over repeats (median, q1, q3, (q3-q1)/median):")
	for _, w := range workloads {
		for _, s := range specs {
			v := file.values(w.Name, s.Name)
			if len(v) < 2 {
				continue
			}
			q1, q3 := quartiles(v)
			fmt.Printf("  %-18s %-28s %14.6g %14.6g %14.6g %7.2f%%\n", w.Name, s.Name, median(v), q1, q3, 100*spread(v))
		}
	}
}
