# deltasched — reproduction of "Does Link Scheduling Matter on Long Paths?"

GO ?= go

.PHONY: all build test test-short race stress cover bench bench-json bench-diff bench-smoke metrics-smoke examples-smoke chaos figs figs-quick ablate scenarios fmt vet perfbench-build check fuzz-smoke profile clean

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

bench:
	$(GO) test -bench=. -benchmem ./...

# Record a benchmark trajectory point: run the suite and write the scratch
# file bench_new.json with ns/op, B/op, allocs/op, custom metrics, and the
# git SHA, diffed against the newest committed BENCH_PR*.json (-before).
# Three repetitions per benchmark, recording the fastest — min-of-runs is
# the noise-robust estimator on a shared box. To commit a new point,
# rename bench_new.json to the next BENCH_PR<n>.json; `make clean`
# removes the scratch file. See DESIGN.md's Performance section for how
# to read the trajectory files.
bench-json:
	$(GO) run ./cmd/benchjson -out bench_new.json -before $$(ls BENCH_PR*.json | sort -V | tail -1) -count 3

# Regression gate over the committed trajectory: fail when the newest
# BENCH_PR*.json regressed past 15% in ns/op or allocs/op against its
# predecessor. A committed CALIB_<newest>.json — the OLD code re-run in
# the new recording's environment (git worktree at the baseline commit,
# same machine) — calibrates the ns/op gate for shared-machine drift;
# see benchjson -calibrate.
bench-diff:
	@files=$$(ls BENCH_PR*.json | sort -V | tail -2); \
	set -- $$files; \
	if [ $$# -lt 2 ]; then echo "bench-diff: need two BENCH_PR*.json files, have: $$files"; exit 0; fi; \
	calib=""; \
	if [ -f CALIB_$$2 ]; then calib="-calibrate CALIB_$$2"; fi; \
	echo "benchjson -diff $$1 $$2 -threshold 15 $$calib"; \
	$(GO) run ./cmd/benchjson -diff $$1 $$2 -threshold 15 $$calib

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
# exit: `go build ./...` only compiles them, so one that breaks at run
# time would pass unnoticed.
examples-smoke:
	@for d in examples/*/; do \
		echo "examples-smoke: $$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
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
	gofmt -w ./cmd ./internal ./examples ./bench_test.go

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
	$(GO) test -run='^$$' -fuzz=FuzzCurveOps -fuzztime=10s ./internal/minplus/
	$(GO) test -run='^$$' -fuzz=FuzzPseudoInverse -fuzztime=10s ./internal/minplus/

# CI gate: formatting, static analysis, a vet and build of the perfbench
# module, the full test suite, race-sensitive packages (the scenario tier
# carries the replication worker-count parity tests, the obs tier the
# tracer/registry concurrency tests, the shard tier the lease/claim
# races), the chaos suite (fault-injected sharded sweeps must merge
# byte-identical), the bench regression gate over the committed
# trajectory, a live probe of the /metrics endpoint, a run of every
# example program, and a fuzz smoke test of the numeric kernels.
check:
	@unformatted=$$(gofmt -l cmd internal examples bench_test.go); \
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
	$(MAKE) bench-diff
	$(MAKE) metrics-smoke
	$(MAKE) examples-smoke
	$(MAKE) fuzz-smoke

# Profile a representative netsim run and show the hot functions.
profile:
	$(GO) run ./cmd/netsim -slots 200000 -cpuprofile cpu.prof -report netsim-report.json
	$(GO) tool pprof -top -nodecount=10 cpu.prof

# Scratch bench JSONs (bench_*.json, BENCH_*.json.tmp) are removed; the
# committed BENCH_PR*.json trajectories are kept.
clean:
	rm -f test_output.txt bench_output.txt bench_*.txt bench_*.json BENCH_*.json.tmp \
		cpu.prof mem.prof *.prof *.pprof trace.out netsim-report.json
