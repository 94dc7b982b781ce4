GO ?= go
BENCH_TXT ?= BENCH_$(shell date +%Y-%m-%d).txt

.PHONY: tier1 vet build test race fuzz-smoke bench bench-smoke digests e2e-bench trace-smoke telemetry-smoke block-smoke scale-smoke

# tier1 is the pre-merge gate: static checks (go vet and gofmt), full build and test suite
# (including the noasm scalar-only configuration of the force kernels, and
# cmd/benchfigs's smoke of every paper-figure section at reduced size),
# the race-detector subset covering the concurrent gravity pipeline
# (8+ ranks, multiple walk workers, one boundary tree walked by eight
# goroutines at once, eight batched passes over overlapping sets of shared
# boundary trees, scripted LET arrival orders), the MPI mailbox plus the
# socket transports (the ./internal/mpi conformance matrix runs every
# transport test over unix and tcp at 8 ranks), the parallel sort, and the
# domain exchange (p goroutine ranks carving their send bins from one buffer,
# checked element for element against the append-grown reference), the
# telemetry plane (GatherStep, GatherEnd and the fleet view across goroutine
# ranks), plus
# short fuzzes of the SIMD force kernels against the scalar reference, of the
# MaxRungs=0 integrator against the written-out shared-step leapfrog, and of
# the four decoders of bytes this process did not write: the snapshot reader,
# the mpi payload codec, the LET frame decoder and the metrics JSONL reader.
tier1: vet build test race fuzz-smoke

# A 10-second fuzz of snapshot.Read (any bytes return a value or an error:
# no panic, no allocation beyond a small multiple of the input; the committed
# reproducer under internal/snapshot/testdata/fuzz, a 40-byte header declaring
# 1<<62 particles, is replayed first; -fuzzminimizetime as for the LET fuzz
# below), a 10-second fuzz of the float32 force
# kernels, every tier the host supports, against the always-compiled scalar float64
# reference (agreement to grav.KernelTol against the weighted contribution
# norm, bitwise equality for every call outside the float32 range, exact
# scaling under a change of units; the committed corpus under
# internal/grav/testdata/fuzz is replayed first),
# a 10-second fuzz of the integrator at MaxRungs=0 against a written-out
# shared-step leapfrog (bitwise-identical trajectories over random
# Plummer models and step counts), a 10-second fuzz of mpi.decodePayload
# (any kind tag with any bytes returns a value or an error: no panic, no
# allocation beyond a small multiple of the payload; the committed
# reproducer under internal/mpi/testdata/fuzz is replayed first), a 10-second
# fuzz of the socket stream decoder, readPreamble then readFrame until the first
# error as a connection is served (every call returns a value or a named error:
# no panic, no allocation beyond readBody's doubling bound plus a small multiple
# of the input; seeded with a valid frame of every payload kind), a 10-second
# fuzz of lettree.Unmarshal (truncated,
# bit-flipped and cyclic frames must be rejected or decode to a tree every
# walk terminates on; -fuzzminimizetime keeps the engine's byte-by-byte
# minimisation of each multi-kB finding from eating the whole budget), and a
# 10-second fuzz of obs.ReadMetricsJSONL, the reader rank 0 runs on the step
# records every other process gathers to it (no panic; every record it
# returns re-encodes and decodes to itself; a stream cut inside its final line
# returns the complete prefix), and a 10-second fuzz of the checkpoint MANIFEST
# parser (any bytes are ErrManifest or a rank count ≥ 1 whose manifest, written
# the way CommitCkpt writes it for the directory's step, is those bytes exactly).
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzSnapshotRead -fuzztime 10s -fuzzminimizetime 1s ./internal/snapshot
	$(GO) test -run XXX -fuzz FuzzKernelEquivalence -fuzztime 10s ./internal/grav
	$(GO) test -run XXX -fuzz FuzzBlockEquivalence -fuzztime 10s ./internal/sim
	$(GO) test -run XXX -fuzz FuzzDecodePayload -fuzztime 10s ./internal/mpi
	$(GO) test -run XXX -fuzz FuzzReadFrame -fuzztime 10s -fuzzminimizetime 1s ./internal/mpi
	$(GO) test -run XXX -fuzz FuzzLETUnmarshal -fuzztime 10s -fuzzminimizetime 1s ./internal/lettree
	$(GO) test -run XXX -fuzz FuzzReadMetricsJSONL -fuzztime 10s -fuzzminimizetime 1s ./internal/obs
	$(GO) test -run XXX -fuzz FuzzManifest -fuzztime 10s -fuzzminimizetime 1s ./internal/snapshot

# vet also fails when any Go file is not gofmt-formatted, listing the files.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .) && [ -z "$$unformatted" ] || { echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; }

# The noasm build strips the assembly kernels and pins the scalar float64
# reference, proving the pure-Go fallback path stays buildable and correct.
# Every package whose tests compare forces through grav.KernelTol runs under
# it too: there the tolerance is 1e-12, so the scheduling and ordering
# assertions the float32 tier can only hold to ~1e-5 are still held tight.
NOASM_PKGS = ./internal/grav ./internal/octree ./internal/lettree ./internal/device ./internal/sim

build:
	$(GO) build ./...
	$(GO) build -tags noasm ./...

test:
	$(GO) test ./...
	$(GO) test -tags noasm $(NOASM_PKGS)

race:
	$(GO) test -race -count=1 ./internal/sim ./internal/mpi ./internal/psort ./internal/obs ./internal/obs/telemetry ./internal/octree ./internal/lettree ./internal/par ./internal/domain
	$(GO) test -race -tags noasm -count=1 $(NOASM_PKGS)

# Force-kernel microbenchmarks (scalar per-pair vs scalar batch vs dispatched
# SIMD, ns/inter and Gflop/s under the §VI.A conventions, and every float32
# kernel tier the host supports side by side: the Fig. 1 table),
# the full 100k-particle tree-walk, the walk's traversal/gather/kernel cost
# split, one rank's batched pass over its 63 remote trees at p=64 against the
# same work walked tree by tree, the remote-tree builds with their
# allocations (a boundary tree, a near-domain LET, and one rank's 63 LETs in
# the blobs_p64 shape), the tree-pipeline phases (build / properties
# / groups, 1 vs 8 workers), the MPI transports (ping-pong + 8-rank allgather over chan/unix/tcp),
# and the block-timestep integrator against its finest-rung global-dt
# equivalent (wall-clock per simulated time + energy drift in ppm), three
# samples each. go test's own output is shown and kept as BENCH_<date>.txt,
# the text format benchstat reads, for local use (git-ignored: the rows compare
# only on one host; the gate is `go run ./benchmark compare`). The pipe into
# tee hides go test's exit status, so the recipe fails on any FAIL line.
bench:
	@{ $(GO) test -run XXX -bench 'BenchmarkKernels' -benchtime 300x -count=3 . ; \
	   $(GO) test -run XXX -bench 'BenchmarkKernelTiers' -benchtime 2000x -count=3 ./internal/grav ; \
	   $(GO) test -run XXX -bench 'BenchmarkWalk100k' -benchtime 2x -count=3 ./internal/octree ; \
	   $(GO) test -run XXX -bench 'BenchmarkWalkGather' -benchtime 2x -count=3 ./internal/octree ; \
	   $(GO) test -run XXX -bench 'BenchmarkWalkRemote' -benchtime 200x -count=3 ./internal/sim ; \
	   $(GO) test -run XXX -bench 'BenchmarkBoundaryTree|BenchmarkBuildFor' -benchtime 200x -count=3 ./internal/lettree ; \
	   $(GO) test -run XXX -bench 'BenchmarkTreePipeline' -benchtime 2x -count=3 ./internal/octree ; \
	   $(GO) test -run XXX -bench 'BenchmarkPingPong|BenchmarkAllgather' -benchtime 200x -count=3 ./internal/mpi ; \
	   $(GO) test -run XXX -bench 'BenchmarkExchangeScale' -benchtime 1x -count=3 . ; \
	   $(GO) test -run XXX -bench 'BenchmarkBlockSteps' -benchtime 1x -count=3 . ; } \
	  | tee $(BENCH_TXT) && ! grep -q '^FAIL' $(BENCH_TXT)

# Every Benchmark* function in the module, run once: a benchmark that no
# longer builds, panics or calls b.Fatal fails here instead of rotting
# unnoticed until someone next runs `make bench`.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

# The SHA-256 of the final particle state of the benchmark's four workload
# configurations (TestStateDigests, which also requires each to be bitwise
# equal under two worker counts or two transports). Run it at two commits:
# equal digests mean identical arithmetic.
digests:
	$(GO) test -count=1 -run '^TestStateDigests$$' -v .

# The end-to-end benchmark BENCHMARK.json declares: four workloads, step time
# at stated force accuracy, and the per-layer replay. Results are comparable
# only between runs on one host (`go run ./benchmark compare` refuses others).
e2e-bench:
	$(GO) run ./benchmark run -out benchmark/out/e2e.json

# End-to-end smoke test of the observability layer: a traced 4-rank
# in-process run must produce a Perfetto-loadable Chrome trace, a parseable
# metrics stream and a Prometheus snapshot of its fleet view, and tracestats
# must turn them into the overlap/straggler report, with the remote walk's
# passes per evaluation and trees per pass and the chart of LET arrival
# offsets against local-walk completion, and validate the snapshot.
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/bonsai -model plummer -n 4000 -ranks 4 -steps 2 -q \
	  -trace "$$tmp/trace.json" -metrics "$$tmp/metrics.jsonl" -prom-snapshot "$$tmp/metrics.prom" && \
	$(GO) run ./cmd/tracestats -metrics "$$tmp/metrics.jsonl" -prom "$$tmp/metrics.prom" "$$tmp/trace.json" | tee "$$tmp/report.txt" && \
	grep -q 'batched passes per rank per evaluation' "$$tmp/report.txt" && \
	grep -q 'LET arrival offset vs local-walk completion' "$$tmp/report.txt" && \
	grep -q 'format ok' "$$tmp/report.txt" && \
	echo "trace-smoke: OK"

# End-to-end smoke test of the distributed telemetry plane: a 4-rank
# multi-process unix-socket run, whose telemetry travels to rank 0 over the
# socket world itself, must produce one clock-aligned merged trace (all 4 rank
# tracks on rank 0's clock), the folded metrics stream, and a Prometheus
# snapshot that parses as text exposition format and carries the span-drop
# gauge and the last rank's per-phase samples.
telemetry-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/bonsai -model plummer -n 4000 -ranks 4 -steps 2 -q \
	  -transport unix -trace "$$tmp/merged.json" -metrics "$$tmp/merged.jsonl" \
	  -prom-snapshot "$$tmp/metrics.prom" && \
	$(GO) run ./cmd/tracestats -metrics "$$tmp/merged.jsonl" \
	  -prom "$$tmp/metrics.prom" "$$tmp/merged.json" | tee "$$tmp/report.txt" && \
	grep -q 'trace: 4 ranks' "$$tmp/report.txt" && \
	grep -q 'cross-rank start skew' "$$tmp/report.txt" && \
	grep -q 'format ok' "$$tmp/report.txt" && \
	grep -q '^bonsai_spans_dropped{' "$$tmp/metrics.prom" && \
	grep -q '^bonsai_phase_seconds{rank="3",phase="grav_let"} ' "$$tmp/metrics.prom" && \
	echo "telemetry-smoke: OK"

# End-to-end smoke test of the LET exchange at scale: 256 in-process ranks,
# one step — p·(p−1) boundary-tree pushes through one process's mailboxes —
# must complete, and tracestats must parse the metrics stream it wrote.
scale-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/bonsai -model milkyway -n 30000 -ranks 256 -steps 1 -q \
	  -metrics "$$tmp/metrics.jsonl" && \
	$(GO) run ./cmd/tracestats -metrics "$$tmp/metrics.jsonl" | tee "$$tmp/report.txt" && \
	grep -q '256 ranks' "$$tmp/report.txt" && \
	echo "scale-smoke: OK"

# ENERGY_DRIFT is an awk program over a cmd/bonsai step log: it fails unless
# the first-vs-last relative energy drift of the E= samples is under 0.5%.
ENERGY_DRIFT = {for(i=1;i<=NF;i++) if($$i ~ /^E=/) E[++n]=substr($$i,3)} \
  END { if (n < 2) { print leg ": no energy samples"; exit 1 } \
        d=(E[n]-E[1])/E[1]; if (d<0) d=-d; \
        printf "%s: energy drift %.2e over %d samples\n", leg, d, n; \
        exit (d < 5e-3 ? 0 : 1) }

# End-to-end smoke test of the block-timestep path: a 4-rank multi-process
# unix-socket run with -max-rungs 3 must emit substep spans into the merged
# trace and active-fraction metrics into the merged JSONL, and its energy must
# stay conserved (first-vs-last step drift under 0.5%); -eta-dt 0.005 spreads
# the rungs over ~4 substeps per step. Its step-2 snapshot then restarts a
# second 4-process run with -max-rungs 3, where each worker sees only its own
# slice of the restored rungs plus the rung-population allreduce: that run
# must keep the hierarchy and finish inside the same drift bound.
block-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/bonsai -model plummer -n 4000 -ranks 4 -steps 4 \
	  -max-rungs 3 -eta-dt 0.005 -transport unix \
	  -snap-every 2 -snap-prefix "$$tmp/blk" \
	  -trace "$$tmp/merged.json" -metrics "$$tmp/merged.jsonl" \
	  | tee "$$tmp/run.txt" && \
	grep -q '"substep"' "$$tmp/merged.json" && \
	grep -q 'active_frac' "$$tmp/merged.jsonl" && \
	grep -q 'rung_pop' "$$tmp/merged.jsonl" && \
	awk -v leg=block-smoke '$(ENERGY_DRIFT)' "$$tmp/run.txt" && \
	$(GO) run ./cmd/bonsai -model plummer -restore "$$tmp/blk_00002.snap" -ranks 4 -steps 2 \
	  -max-rungs 3 -eta-dt 0.005 -transport unix | tee "$$tmp/restore.txt" && \
	awk -v leg=block-smoke/restore '$(ENERGY_DRIFT)' "$$tmp/restore.txt" && \
	echo "block-smoke: OK"
