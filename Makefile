# deltasched — reproduction of "Does Link Scheduling Matter on Long Paths?"

GO ?= go

.PHONY: all build test test-short race stress cover bench bench-smoke metrics-smoke examples-smoke chaos figs figs-quick ablate scenarios fmt vet perfbench-build check fuzz-smoke profile clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./internal/experiments/ ./internal/sim/ ./internal/scenario/ ./internal/measure/ ./internal/obs/ ./internal/shard/ ./internal/faults/ ./internal/runner/

# Repeated race-detector runs of the concurrency-heavy tiers: flaky
# cancellation or checkpoint races rarely show on a single pass. The
# checkpoint lives in internal/shard, and internal/runner's workers
# record into it concurrently.
stress:
	$(GO) test -race -count=3 ./internal/sim/ ./internal/experiments/ ./internal/core/ ./internal/shard/ ./internal/runner/

cover:
	$(GO) test -cover ./internal/...

# The go test micro-benchmarks, timed, for local profiling. End-to-end
# time and allocation of the shipped commands are measured by perfbench
# (bash perfbench/run.sh; BENCHMARK.json lists its workloads).
bench:
	$(GO) test -bench=. -benchmem ./...

# One-iteration pass over every benchmark: catches benchmarks that
# panic or fail without paying for a timed run.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# End-to-end probe of the -metrics-addr endpoint: run a netsim long
# enough to keep the server up, poll /metrics, and require the optimizer
# introspection counters in the exposition.
METRICS_ADDR ?= 127.0.0.1:9473
metrics-smoke:
	@$(GO) build -o /tmp/deltasched-netsim ./cmd/netsim
	@/tmp/deltasched-netsim -slots 4000000 -metrics-addr $(METRICS_ADDR) >/dev/null 2>&1 & \
	pid=$$!; \
	ok=0; \
	for i in $$(seq 1 40); do \
		body=$$(curl -sf http://$(METRICS_ADDR)/metrics 2>/dev/null) || { sleep 0.25; continue; }; \
		if echo "$$body" | grep -q '^core_delaybound_calls_total'; then ok=1; break; fi; \
		sleep 0.25; \
	done; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ $$ok -ne 1 ]; then echo "metrics-smoke: /metrics never served the optimizer counters"; exit 1; fi; \
	echo "metrics-smoke: /metrics served the optimizer counters"

# Build and run every program under examples/, failing on a non-zero
# exit or on stdout that differs from the program's committed
# examples/<name>/testdata/stdout.golden: `go build ./...` only compiles
# them, so one that breaks or drifts at run time would pass unnoticed.
# Every example is deterministic (fixed seeds).
examples-smoke:
	@out=$$(mktemp); trap 'rm -f $$out' EXIT; \
	for d in examples/*/; do \
		echo "examples-smoke: $$d"; \
		$(GO) run ./$$d >$$out || exit 1; \
		diff -u $${d}testdata/stdout.golden $$out || { echo "examples-smoke: $$d stdout differs from its golden"; exit 1; }; \
	done

# Chaos suite under the race detector: every deterministic fault
# injector (panic, hang, partial fragment write, fragment corruption)
# plus the real SIGKILL-a-child e2e test, asserting that sharded sweeps
# merge byte-identical to fault-free single-process runs.
chaos:
	$(GO) test -race -run 'Chaos|Shard' ./internal/shard/ ./internal/runner/ ./cmd/paperfigs/

# Regenerate the paper's figures (Figs. 2-4) as tables, charts and CSV.
figs:
	$(GO) run ./cmd/paperfigs -outdir results

figs-quick:
	$(GO) run ./cmd/paperfigs -quick

# Scaling fits, design-choice ablations, admissible region.
ablate:
	$(GO) run ./cmd/ablate -region

# The scenario catalog: every registered workload with its parameter
# schema and supported backends (same output as `<any cmd> -scenarios`).
scenarios:
	$(GO) run ./cmd/paperfigs -scenarios

fmt:
	gofmt -w ./cmd ./internal ./examples ./bench_test.go ./exports_test.go

vet:
	$(GO) vet ./...

# perfbench is its own module (replace deltasched => ../) that imports
# internal APIs, so the root `go build ./...` never compiles it. Vet and
# build it against this tree, so a change that breaks the benchmark
# fails here.
perfbench-build:
	cd perfbench && $(GO) vet . && $(GO) build -o /dev/null .

# Short fuzzing passes over the numeric kernels (one -fuzz target per
# invocation is a Go toolchain restriction).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzInnerMinimize -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzInnerSolveMonotoneInDelta -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzEDFProvisionedReusedScratch -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzIntervalBounds -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzAlphaFloor -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzCurveOps -fuzztime=10s ./internal/minplus/
	$(GO) test -run='^$$' -fuzz=FuzzPseudoInverse -fuzztime=10s ./internal/minplus/

# CI gate: formatting, static analysis, a vet and build of the perfbench
# module, the full test suite, race-sensitive packages (the scenario tier
# carries the replication worker-count parity tests, the obs tier the
# tracer/registry concurrency tests, the shard tier the lease/claim
# races), the chaos suite (fault-injected sharded sweeps must merge
# byte-identical), one pass over every benchmark, a live probe of the
# /metrics endpoint, a run of every example program, and a fuzz smoke
# test of the numeric kernels.
check:
	@unformatted=$$(gofmt -l cmd internal examples bench_test.go exports_test.go); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) perfbench-build
	$(GO) test ./...
	$(MAKE) race
	$(MAKE) chaos
	$(MAKE) bench-smoke
	$(MAKE) metrics-smoke
	$(MAKE) examples-smoke
	$(MAKE) fuzz-smoke

# Profile a representative netsim run and show the hot functions.
profile:
	$(GO) run ./cmd/netsim -slots 200000 -cpuprofile cpu.prof -report netsim-report.json
	$(GO) tool pprof -top -nodecount=10 cpu.prof

clean:
	rm -f test_output.txt bench_output.txt bench_*.txt \
		cpu.prof mem.prof *.prof *.pprof trace.out netsim-report.json
