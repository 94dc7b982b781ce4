GO ?= go
BENCH_JSON ?= BENCH_$(shell date +%Y-%m-%d).json

.PHONY: tier1 vet build test race fuzz-smoke bench bench-overlap e2e-bench trace-smoke telemetry-smoke block-smoke scale-smoke

# tier1 is the pre-merge gate: static checks, full build and test suite
# (including the noasm scalar-only configuration of the force kernels),
# the race-detector subset covering the concurrent gravity pipeline
# (8+ ranks, multiple walk workers, one boundary tree walked by eight
# goroutines at once, eight batched passes over overlapping sets of shared
# boundary trees, scripted LET arrival orders), the MPI mailbox plus the
# socket transports (the ./internal/mpi conformance matrix runs every
# transport test over unix and tcp at 8 ranks), and the parallel sort, plus
# short fuzzes of the SIMD force kernels against the scalar reference, of the
# MaxRungs=0 block integrator against the global-dt leapfrog, and of the three
# decoders of bytes this process did not write: the snapshot reader, the mpi
# payload codec and the LET frame decoder.
tier1: vet build test race fuzz-smoke

# A 10-second fuzz of snapshot.Read (any bytes return a value or an error:
# no panic, no allocation beyond a small multiple of the input; the committed
# reproducer under internal/snapshot/testdata/fuzz, a 40-byte header declaring
# 1<<62 particles, is replayed first; -fuzzminimizetime as for the LET fuzz
# below), a 10-second fuzz of the dispatched
# float32 AVX2 force kernels against the always-compiled scalar float64
# reference (agreement to grav.KernelTol against the weighted contribution
# norm, bitwise equality for every call outside the float32 range, exact
# scaling under a change of units; the committed corpus under
# internal/grav/testdata/fuzz is replayed first),
# a 10-second fuzz of the MaxRungs=0 block-timestep integrator against
# the global-dt leapfrog (bitwise-identical trajectories over random
# Plummer models and step counts), a 10-second fuzz of mpi.decodePayload
# (any kind tag with any bytes returns a value or an error: no panic, no
# allocation beyond a small multiple of the payload; the committed
# reproducer under internal/mpi/testdata/fuzz is replayed first), and a
# 10-second fuzz of lettree.Unmarshal (truncated,
# bit-flipped and cyclic frames must be rejected or decode to a tree every
# walk terminates on; -fuzzminimizetime keeps the engine's byte-by-byte
# minimisation of each multi-kB finding from eating the whole budget).
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzSnapshotRead -fuzztime 10s -fuzzminimizetime 1s ./internal/snapshot
	$(GO) test -run XXX -fuzz FuzzKernelEquivalence -fuzztime 10s ./internal/grav
	$(GO) test -run XXX -fuzz FuzzBlockEquivalence -fuzztime 10s ./internal/sim
	$(GO) test -run XXX -fuzz FuzzDecodePayload -fuzztime 10s ./internal/mpi
	$(GO) test -run XXX -fuzz FuzzLETUnmarshal -fuzztime 10s -fuzzminimizetime 1s ./internal/lettree

vet:
	$(GO) vet ./...

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
	$(GO) test -race -count=1 ./internal/sim ./internal/mpi ./internal/psort ./internal/obs ./internal/octree ./internal/lettree ./internal/par
	$(GO) test -race -tags noasm -count=1 $(NOASM_PKGS)

# Force-kernel microbenchmarks (scalar per-pair vs scalar batch vs dispatched
# SIMD, ns/inter and Gflop/s under the §VI.A conventions),
# the full 100k-particle tree-walk, the walk's traversal/gather/kernel cost
# split, one rank's batched pass over its 63 remote trees at p=64 against the
# same work walked tree by tree, the tree-pipeline phases (build / properties
# / groups, 1 vs 8 workers), the MPI transports (ping-pong + 8-rank allgather over chan/unix/tcp),
# and the block-timestep integrator against its finest-rung global-dt
# equivalent (wall-clock per simulated time + energy drift in ppm), three
# samples each, recorded as BENCH_<date>.json for local use (git-ignored: the
# rows compare only on one host; the gate is `go run ./benchmark compare`).
bench:
	@{ $(GO) test -run XXX -bench 'BenchmarkKernels' -benchtime 300x -count=3 . ; \
	   $(GO) test -run XXX -bench 'BenchmarkWalk100k' -benchtime 2x -count=3 ./internal/octree ; \
	   $(GO) test -run XXX -bench 'BenchmarkWalkGather' -benchtime 2x -count=3 ./internal/octree ; \
	   $(GO) test -run XXX -bench 'BenchmarkWalkRemote' -benchtime 200x -count=3 ./internal/sim ; \
	   $(GO) test -run XXX -bench 'BenchmarkTreePipeline' -benchtime 2x -count=3 ./internal/octree ; \
	   $(GO) test -run XXX -bench 'BenchmarkPingPong|BenchmarkAllgather' -benchtime 200x -count=3 ./internal/mpi ; \
	   $(GO) test -run XXX -bench 'BenchmarkExchangeScale' -benchtime 1x -count=3 . ; \
	   $(GO) test -run XXX -bench 'BenchmarkBlockSteps' -benchtime 1x -count=3 . ; } \
	  | $(GO) run ./cmd/benchjson -out $(BENCH_JSON)

# Serial vs pipelined gravity phase; nonhidden_ms should drop and
# overlap_% rise in the Pipelined rows.
bench-overlap:
	$(GO) test -run XXX -bench 'BenchmarkOverlap' -benchtime 3x .

# The end-to-end benchmark BENCHMARK.json declares: four workloads, step time
# at stated force accuracy, and the per-layer replay. Results are comparable
# only between runs on one host (`go run ./benchmark compare` refuses others).
e2e-bench:
	$(GO) run ./benchmark run -out benchmark/out/e2e.json

# End-to-end smoke test of the observability layer: a traced 4-rank run must
# produce a Perfetto-loadable Chrome trace and a parseable metrics stream,
# and tracestats must turn both into the overlap/straggler report, with the
# remote walk's passes per evaluation and trees per pass.
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/bonsai -model plummer -n 4000 -ranks 4 -steps 2 -q \
	  -trace "$$tmp/trace.json" -metrics "$$tmp/metrics.jsonl" && \
	$(GO) run ./cmd/tracestats -metrics "$$tmp/metrics.jsonl" "$$tmp/trace.json" | tee "$$tmp/report.txt" && \
	grep -q 'batched passes per rank per evaluation' "$$tmp/report.txt" && \
	$(GO) run ./cmd/snapinfo -metrics "$$tmp/metrics.jsonl" >/dev/null && \
	echo "trace-smoke: OK"

# End-to-end smoke test of the distributed telemetry plane: a 4-rank
# multi-process unix-socket run with the launcher's collector must produce one
# clock-aligned merged trace (all 4 rank tracks on a common timebase), a
# combined per-rank metrics stream, and a Prometheus snapshot that parses as
# text exposition format.
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

# End-to-end smoke test of the block-timestep path: a 4-rank multi-process
# unix-socket run with -block-steps must emit substep spans into the merged
# trace and active-fraction metrics into the merged JSONL, and its energy must
# stay conserved (first-vs-last step drift under 0.5%).
block-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/bonsai -model plummer -n 4000 -ranks 4 -steps 4 \
	  -block-steps -max-rungs 3 -transport unix \
	  -trace "$$tmp/merged.json" -metrics "$$tmp/merged.jsonl" \
	  | tee "$$tmp/run.txt" && \
	grep -q '"substep"' "$$tmp/merged.json" && \
	grep -q 'active_frac' "$$tmp/merged.jsonl" && \
	grep -q 'rung_pop' "$$tmp/merged.jsonl" && \
	awk '{for(i=1;i<=NF;i++) if($$i ~ /^E=/) E[++n]=substr($$i,3)} \
	  END { if (n < 2) { print "block-smoke: no energy samples"; exit 1 } \
	        d=(E[n]-E[1])/E[1]; if (d<0) d=-d; \
	        printf "block-smoke: energy drift %.2e over %d samples\n", d, n; \
	        exit (d < 5e-3 ? 0 : 1) }' "$$tmp/run.txt" && \
	echo "block-smoke: OK"
