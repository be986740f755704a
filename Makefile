# gpupower build / verify targets.
#
# Tiers:
#   make verify  — tier-1 gate (build + full test suite), what every PR must keep green
#   make race    — concurrency gate: go vet + the full suite under the race
#                  detector. The estimation engine fans out across a worker
#                  pool (internal/parallel); this tier is what keeps the
#                  disjoint-write invariants honest and must gate every PR
#                  that touches a parallel loop.
#   make cover   — full suite with coverage; prints the total and writes
#                  cover.out (the baseline figure lives in EXPERIMENTS.md)
#   make lint    — static gate: one gpowerlint run loads and type-checks the
#                  module once, then (1) runs the in-tree analyzers
#                  (internal/lint; see DESIGN.md §9) over ./..., failing on
#                  any diagnostic, and (2) over the same packages
#                  interprocedurally proves every //gpower:noalloc hot-path
#                  root allocation-free (internal/alloccheck; see DESIGN.md
#                  §13), failing on any unproven root, reasonless
#                  //gpower:allocs hatch, or dead hatch. The analyzers
#                  mechanically enforce determinism (maporder, floateq),
#                  cancellation (ctxflow), error taxonomy (senterr),
#                  pooled-spawn (gonosync), disjoint-write (disjointwrite,
#                  with method-mutation summaries), unit-provenance
#                  (unitflow, with cross-package facts), snapshot-coherence
#                  (atomicsnap), serving-boundary (httpbound), wire-unit
#                  (dtounits) and live-suppression (unusedignore)
#                  invariants. Builds the binary once, runs it twice (cold,
#                  then warm over the OS page cache), requires
#                  byte-identical reports and prints both wall times; must
#                  stay green on every PR.
#   make alloccheck — alias of make lint (the proof runs inside gpowerlint).
#   make bench   — regenerate the paper's tables/figures (EXPERIMENTS.md numbers)
#   make speedup — serial vs parallel Estimate comparison per device catalog
#   make bench-json — run the perf-relevant Go benchmarks plus the speedup
#                  and fleet-fit experiments and consolidate everything into
#                  BENCH_results.json (ns/op, B/op, allocs/op, reference-vs-
#                  restructured estimate-fit factors, fleet models/min;
#                  seed 42). Also drives the gpowerd HTTP load harness for
#                  SERVE_DURATION over SERVE_CONNS keep-alive connections
#                  (the serve_predict row) and the fleet discrete-event DVFS
#                  simulation over CLUSTER_GPUS GPUs for CLUSTER_HORIZON
#                  simulated seconds (the cluster_sim row: per-policy energy
#                  and deadline outcomes plus single-core events/sec). Fails
#                  if a large-device estimate-fit speedup drops below
#                  MIN_ESTIMATE_SPEEDUP (default 2.0), the served
#                  predictions/sec drop below MIN_SERVE_THROUGHPUT (default
#                  1,000,000) or the cluster engine drops below
#                  MIN_CLUSTER_EVENTS simulated events/sec (default
#                  1,000,000; CI passes lower bars to tolerate shared
#                  runners). BENCHTIME=1x makes it a smoke run (CI default
#                  here); raise it locally for stable numbers.

GO ?= go
BENCHTIME ?= 1x

# The benchmark subset bench-json records: the estimation and DVFS hot
# paths this repo optimizes, not the full paper-figure regeneration suite.
# They live in the root package and internal/cluster; bench-json runs both.
BENCH_JSON_PATTERN = 'Benchmark(Predict|NNLS(Cold)?|Isotonic|DVFSSearch|EvaluateOperatingPoints|FindBestConfigWarm|Estimate(Serial|Parallel|Reference)|FleetFit|ClusterEvents)$$'

# bench-json regression gate: the estimate-fit speedup rows for the large
# devices (Titan Xp, GTX Titan X) must stay at or above this factor, else
# benchjson exits non-zero and the CI bench-smoke job fails.
MIN_ESTIMATE_SPEEDUP ?= 2.0

# gpowerd load-harness knobs for the serve_predict row: wall time of the
# timed phase, client connections, and the sustained predictions/sec floor
# (0 disables the gate; SERVE_DURATION=0 skips the harness entirely).
SERVE_DURATION ?= 2s
SERVE_CONNS ?= 4
MIN_SERVE_THROUGHPUT ?= 1000000

# Cluster-simulation knobs for the cluster_sim row: fleet size, simulated
# arrival horizon (seconds), and the single-core simulated-events/sec floor
# (0 disables the gate; CLUSTER_GPUS=0 skips the simulation entirely). The
# local target is >=1M events/sec for a 1,000-GPU fleet; CI passes a lower
# floor and a shorter horizon to tolerate shared runners.
CLUSTER_GPUS ?= 1000
CLUSTER_HORIZON ?= 20
MIN_CLUSTER_EVENTS ?= 1000000

.PHONY: all build test verify vet race lint alloccheck cover bench speedup bench-json clean

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

verify: build test

vet:
	$(GO) vet ./...

race: vet
	$(GO) test -race ./...

# lint runs the prebuilt gate twice over the same tree: the reports must be
# byte-identical (the determinism contract of DESIGN.md §9 and §13), and
# both wall times are printed so a slowdown is visible in CI logs.
lint:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/gpowerlint" ./cmd/gpowerlint || exit $$?; \
	start=$$(date +%s%N); \
	"$$tmp/gpowerlint" ./... > "$$tmp/cold.txt"; status=$$?; \
	end=$$(date +%s%N); cold=$$(( (end - start) / 1000000 )); \
	cat "$$tmp/cold.txt"; \
	[ $$status -eq 0 ] || exit $$status; \
	start=$$(date +%s%N); \
	"$$tmp/gpowerlint" ./... > "$$tmp/warm.txt"; status=$$?; \
	end=$$(date +%s%N); warm=$$(( (end - start) / 1000000 )); \
	[ $$status -eq 0 ] || exit $$status; \
	cmp -s "$$tmp/cold.txt" "$$tmp/warm.txt" || { echo "lint: cold and warm reports differ"; exit 1; }; \
	echo "lint: cold $$cold ms, warm $$warm ms"

alloccheck: lint

cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench . -benchmem ./

speedup:
	$(GO) test -run NONE -bench 'BenchmarkEstimate(Serial|Parallel)' -benchtime 3x ./

bench-json:
	$(GO) test -run NONE -bench $(BENCH_JSON_PATTERN) -benchmem -benchtime $(BENCHTIME) ./ ./internal/cluster/ | tee bench_raw.txt
	$(GO) run ./cmd/benchjson -bench bench_raw.txt -o BENCH_results.json \
		-min-estimate-speedup $(MIN_ESTIMATE_SPEEDUP) \
		-serve-duration $(SERVE_DURATION) -serve-conns $(SERVE_CONNS) \
		-min-serve-throughput $(MIN_SERVE_THROUGHPUT) \
		-cluster-gpus $(CLUSTER_GPUS) -cluster-horizon $(CLUSTER_HORIZON) \
		-min-cluster-events $(MIN_CLUSTER_EVENTS)
	@rm -f bench_raw.txt

clean:
	$(GO) clean ./... && rm -f cover.out bench_raw.txt
