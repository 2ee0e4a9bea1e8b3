GO        ?= go
DATE      := $(shell date +%Y-%m-%d)
BENCH_OUT ?= BENCH_$(DATE).json
# Hot paths of the concurrent experiment engine plus the scoring and
# degree-fitting kernels, and the disabled-instrumentation fast path
# (must stay at 0 allocs/op).
BENCH     ?= RunAll|EmpiricalExpectation|Characterize|PaperScores|ParallelScores|Recorder|Fig3DegreeFit|PowerLawFit
BENCHTIME ?= 1x
# make profile output directory.
PROFILE_DIR ?= profile

.PHONY: all build test race vet lint analyze bench bench-scale bench-tri bench-ncp scale-smoke profile fuzz cover-serve cover-detect loadsmoke clean

all: build vet lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Project-specific determinism, concurrency & architecture checks
# (internal/lint): file-scoped (maporder, globalrng, walltime, floateq,
# goroutineleak, ctxfirst, unboundedgoroutine) plus module-scoped
# (layering, expboundary, atomicmisuse) over the shared import graph.
# Exits non-zero with file:line diagnostics on any finding; suppress
# individual lines with `//lint:ignore <check> <reason>`.
lint:
	$(GO) run ./cmd/circlelint .

# The full static-analysis gate CI runs: go vet, circlelint with every
# check (one shared module load for all ten), and a -race smoke over
# the packages the concurrency analyzers guard. ANALYZE_JSON (optional)
# additionally records the machine-readable findings array — CI uploads
# it as a workflow artifact so annotators can consume scope + import
# chains without re-running the analysis.
analyze: vet
	@if [ -n "$(ANALYZE_JSON)" ]; then \
		$(GO) run ./cmd/circlelint -json . > "$(ANALYZE_JSON)" || true; \
		echo "analyze: findings recorded in $(ANALYZE_JSON)"; \
	fi
	$(GO) run ./cmd/circlelint .
	$(GO) test -race -count=1 ./internal/lint/ ./internal/experiments/ ./internal/serve/... ./cmd/circlerouter/ ./internal/detect/ ./internal/ncp/

# Emits machine-readable benchmark records (one JSON event per line) so
# runs on different machines/dates can be diffed with benchstat-style
# tooling. -benchtime=1x keeps the full-suite benchmarks affordable;
# override BENCHTIME for stabler kernel numbers.
bench:
	$(GO) test -run='^$$' -bench='$(BENCH)' -benchmem -benchtime=$(BENCHTIME) -json . | tee $(BENCH_OUT)

# Paper-scale pipeline smoke under the race detector: the stream
# builder's oracle-equivalence suite (seed data sets included) and the
# scale generator's seed-stability suite, then a small sharded data set
# through the streaming builder's replay protocol. Fast enough for CI;
# the full-size run is bench-scale below.
scale-smoke:
	$(GO) test -race -run 'TestStreamBuilder|TestBuilderMatchesOracle|TestGenerateScale' ./internal/graph/ ./internal/synth/
	$(GO) run ./cmd/synthgen -experiments=scale-pipeline -dataset scale -scale 0.1 \
		-workers 4 -shards 8 -out $${TMPDIR:-/tmp}/gpc-scale-smoke -v

# Record the paper-scale pipeline benchmark. By default the data set is
# floor-sized; GPC_SCALE=full selects the >=3M-vertex / >=50M-edge
# configuration (minutes of wall clock, hence the raised timeout and
# -benchtime=1x). The record lands in BENCH_<date>-scale.json for
# `circlebench compare` against future runs.
SCALE_BENCH_OUT ?= BENCH_$(DATE)-scale.json
bench-scale:
	$(GO) test -run='^$$' -bench='ScalePipeline|StreamBuilder' \
		-benchmem -benchtime=$(BENCHTIME) -timeout=120m -json . | tee $(SCALE_BENCH_OUT)

# Record the triangle-kernel benchmarks: the oriented-DAG kernel (serial
# + parallel + overlay sharing) against the pre-kernel baseline it
# replaced, plus the cohesion scoring function on top. BENCHTIME=1x is a
# smoke; raise it (e.g. BENCHTIME=2s) for the recorded runs compared
# with `circlebench compare`. The kernel's steady-state benchmark must
# report 0 allocs/op and beat the Naive baseline by >=3x ns/edge.
TRI_BENCH_OUT ?= BENCH_$(DATE)-tri.json
bench-tri:
	$(GO) test -run='^$$' -bench='Triangle|Cohesion' \
		-benchmem -benchtime=$(BENCHTIME) -json . | tee $(TRI_BENCH_OUT)

# Record the NCP sweep benchmarks: the approximate-PPR network community
# profile over the shared Google+ data set, serial and fanned out. Both
# produce the same curve by contract, so the pair isolates fan-out
# scaling. BENCHTIME=1x is the CI smoke; raise it for recorded runs.
NCP_BENCH_OUT ?= BENCH_$(DATE)-ncp.json
bench-ncp:
	$(GO) test -run='^$$' -bench='NCPSweep' \
		-benchmem -benchtime=$(BENCHTIME) -json . | tee $(NCP_BENCH_OUT)

# Profile one full circlebench run: CPU profile, heap profile, execution
# trace, and the JSONL run manifest land in $(PROFILE_DIR). Inspect with
# `go tool pprof $(PROFILE_DIR)/cpu.pprof`, `go tool trace
# $(PROFILE_DIR)/run.trace`, and `circlebench compare
# $(PROFILE_DIR)/run.manifest.jsonl`.
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) run ./cmd/circlebench -scale 0.3 \
		-cpuprofile $(PROFILE_DIR)/cpu.pprof \
		-memprofile $(PROFILE_DIR)/mem.pprof \
		-trace $(PROFILE_DIR)/run.trace \
		-manifest $(PROFILE_DIR)/run.manifest.jsonl \
		> $(PROFILE_DIR)/report.txt
	$(GO) run ./cmd/circlebench compare $(PROFILE_DIR)/run.manifest.jsonl

# Coverage-guided fuzz smoke (FUZZTIME per target) over every fuzz
# target: the graph core's inputs from outside (Builder edge soup,
# Overlay exact-degree fill, the binary CSR reader), the sweep-cut
# kernel, the SNAP text parsers, and the fast degree-fitting kernels
# against their reference oracles.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzBuilder$$' -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz='^FuzzOverlayFillFromEdges$$' -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz='^FuzzReadBinary$$' -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz='^FuzzSweepCut$$' -fuzztime=$(FUZZTIME) ./internal/graphalgo/
	$(GO) test -run='^$$' -fuzz='^FuzzReadEdgeList$$' -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run='^$$' -fuzz='^FuzzReadCommunities$$' -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run='^$$' -fuzz='^FuzzReadEgoCircles$$' -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run='^$$' -fuzz='^FuzzFitKernels$$' -fuzztime=$(FUZZTIME) ./internal/powerlaw/

# Coverage floor for the serving layer: internal/serve carries the
# backpressure/coalescing/drain state machine and must stay >= 80%.
SERVE_COVER ?= serve.cover.out
cover-serve:
	$(GO) test -coverprofile=$(SERVE_COVER) ./internal/serve/
	$(GO) tool cover -func=$(SERVE_COVER) | awk '/^total:/ { sub(/%/,"",$$3); \
		if ($$3+0 < 80) { printf "internal/serve coverage %s%% is below the 80%% floor\n", $$3; exit 1 } \
		printf "internal/serve coverage %s%% (floor 80%%)\n", $$3 }'

# Coverage floor for the local-clustering kernels: internal/detect now
# carries the PPR push and sweep-cut machinery behind the NCP workload
# and must stay >= 80%.
DETECT_COVER ?= detect.cover.out
cover-detect:
	$(GO) test -coverprofile=$(DETECT_COVER) ./internal/detect/
	$(GO) tool cover -func=$(DETECT_COVER) | awk '/^total:/ { sub(/%/,"",$$3); \
		if ($$3+0 < 80) { printf "internal/detect coverage %s%% is below the 80%% floor\n", $$3; exit 1 } \
		printf "internal/detect coverage %s%% (floor 80%%)\n", $$3 }'

# End-to-end load smoke, two legs: (1) circled under 100 concurrent
# circleload clients — zero 5xx, result-cache hits under a -dup mix,
# clean SIGTERM drain, parseable final manifest; (2) a 2-backend
# circlerouter replaying NDJSON batches with one backend killed
# mid-run — the router must fail over with zero client-visible 5xx.
loadsmoke:
	LOADSMOKE_DIR=$(LOADSMOKE_DIR) ./scripts/loadsmoke.sh

clean:
	rm -f circlebench BENCH_*.json circlebench.manifest.jsonl circled.manifest.jsonl $(SERVE_COVER) $(DETECT_COVER)
	rm -rf $(PROFILE_DIR)
