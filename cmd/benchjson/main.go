// Command benchjson converts `go test -bench` output on stdin into a JSON
// file, so `make bench` leaves the microbenchmark rows of one host in one
// place for local use (the gate is `go run ./benchmark compare`).
//
//	go test -run XXX -bench . | go run ./cmd/benchjson -out BENCH_2026-08-05.json
//
// The raw benchmark lines are echoed to stdout unchanged; the JSON document
// carries one entry per benchmark with every reported metric (ns/op plus any
// b.ReportMetric extras such as ns/inter or modelGflops).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// Baseline is the emitted document.
type Baseline struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("out", "", "output JSON path (required)")
	flag.Parse()
	if *out == "" {
		log.Fatal("-out is required")
	}

	doc := Baseline{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if r, ok := parseBenchLine(line); ok {
			doc.Benchmarks = append(doc.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		log.Fatal("no benchmark lines found on stdin")
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d benchmarks to %s", len(doc.Benchmarks), *out)
}

// parseBenchLine parses "BenchmarkName-8  100  123 ns/op  4.5 ns/inter ...".
func parseBenchLine(line string) (Result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Result{}, false
	}
	fields := strings.Fields(line)
	// Name, iteration count, then (value, unit) pairs.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		name = name[:i] // strip the GOMAXPROCS suffix
	}
	r := Result{Name: name, Iters: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}
