GO        ?= go
DATE      := $(shell date +%Y-%m-%d)
BENCH_OUT ?= BENCH_$(DATE).json
# Hot paths of the concurrent experiment engine plus data-set generation
# (per data set, and circled's concurrent warm-up),
# the scoring and degree-fitting kernels, and the disabled-instrumentation
# fast path (must stay at 0 allocs/op).
BENCH     ?= RunAll|SuiteGenerate|SuiteWarm|EmpiricalExpectation|Characterize|PaperScores|ParallelScores|Recorder|Fig3DegreeFit|PowerLawFit
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
# ctxfirst) plus module-scoped (layering, atomicmisuse, gostmt) over the
# shared import graph.
# Exits non-zero with file:line diagnostics on any finding; suppress
# individual lines with `//lint:ignore <check> <reason>`.
lint:
	$(GO) run ./cmd/circlelint .

# The full static-analysis gate CI runs: go vet (the root module and
# the separate perfbench module, which ./... does not reach), circlelint
# with every check (one shared module load for all eight), and a -race
# smoke over the packages gostmt allows to start goroutines and their
# main users, plus the suite's concurrent data-set warm-up, graph
# profile and shared once-cells (TestSuite*: data sets, per-graph
# record, and the figure memos read by the report, its CSV series and
# the scorecard). ANALYZE_JSON (optional)
# additionally records the machine-readable findings array — CI uploads
# it as a workflow artifact so annotators can consume scope + import
# chains without re-running the analysis.
analyze: vet
	cd perfbench && $(GO) vet ./...
	@if [ -n "$(ANALYZE_JSON)" ]; then \
		$(GO) run ./cmd/circlelint -json . > "$(ANALYZE_JSON)" || true; \
		echo "analyze: findings recorded in $(ANALYZE_JSON)"; \
	fi
	$(GO) run ./cmd/circlelint .
	$(GO) test -race -count=1 ./internal/lint/ ./internal/experiments/ ./internal/serve/... ./internal/detect/ ./internal/ncp/ ./internal/par/
	$(GO) test -race -count=1 -run 'TestWarm|TestCharacterize|TestSuite' ./internal/core/

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
# the full-size run is bench-scale below. The data set goes to a fresh
# temporary directory that is removed when the recipe ends.
scale-smoke:
	$(GO) test -race -run 'TestStreamBuilder|TestBuilderMatchesOracle|TestGenerateScale' ./internal/graph/ ./internal/synth/
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
		$(GO) run ./cmd/synthgen -dataset scale -scale 0.1 \
			-workers 4 -shards 8 -out "$$dir" -v

# Record the paper-scale pipeline benchmark. By default the data set is
# floor-sized; GPC_SCALE=full selects the >=3M-vertex / >=50M-edge
# configuration (minutes of wall clock, hence the raised timeout and
# -benchtime=1x). The record lands in BENCH_<date>-scale.json for
# `circlebench compare` against future runs.
SCALE_BENCH_OUT ?= BENCH_$(DATE)-scale.json
bench-scale:
	$(GO) test -run='^$$' -bench='ScalePipeline|StreamBuilder' \
		-benchmem -benchtime=$(BENCHTIME) -timeout=120m -json . | tee $(SCALE_BENCH_OUT)

# Record the triangle benchmarks: the cohesion scoring function over
# every Google+ circle, the per-set count it shares with the empirical
# triangle null, and the per-vertex path of the sampled local clustering
# behind Fig. 4 and the graph profiles. BENCHTIME=1x is a smoke; raise
# it (e.g. BENCHTIME=2s) for the recorded runs compared with
# `circlebench compare`.
TRI_BENCH_OUT ?= BENCH_$(DATE)-tri.json
bench-tri:
	$(GO) test -run='^$$' -bench='Cohesion|SampledClustering' \
		-benchmem -benchtime=$(BENCHTIME) -json . | tee $(TRI_BENCH_OUT)

# Record the NCP sweep benchmarks: the approximate-PPR network community
# profile over the shared Google+ data set, serial (the benchmark sets
# GOMAXPROCS=1 itself) and fanned out over the runner's GOMAXPROCS, the
# push layer alone (32 stratified seeds, push and sweep ordering), and
# whole in-process /v1/ncp requests at the request defaults. Both sweeps
# produce the same curve by contract, so the pair isolates fan-out
# scaling. BENCHTIME=1x is the CI smoke; raise it for recorded runs.
NCP_BENCH_OUT ?= BENCH_$(DATE)-ncp.json
bench-ncp:
	$(GO) test -run='^$$' -bench='NCPSweep|PPRPush|NCPHandler' \
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

# Coverage-guided fuzz smoke (FUZZTIME per target) over all fourteen fuzz
# targets: the graph core's inputs from outside (Builder edge soup,
# Overlay exact-degree fill, the binary CSR reader), the sweep-cut
# kernel, the PPR push and the greedy conductance sweep against their
# reference oracles, the null model's
# flat edge set against a map, the SNAP text
# parsers, the fast degree-fitting kernels against their reference
# oracles, the Hurwitz zeta function over arbitrary (s, q), and the
# /v1/score and /v1/ncp request decoders.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzBuilder$$' -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz='^FuzzOverlayFillFromEdges$$' -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz='^FuzzReadBinary$$' -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz='^FuzzSweepCut$$' -fuzztime=$(FUZZTIME) ./internal/graphalgo/
	$(GO) test -run='^$$' -fuzz='^FuzzPPRPush$$' -fuzztime=$(FUZZTIME) ./internal/detect/
	$(GO) test -run='^$$' -fuzz='^FuzzConductanceSweep$$' -fuzztime=$(FUZZTIME) ./internal/detect/
	$(GO) test -run='^$$' -fuzz='^FuzzEdgeSet$$' -fuzztime=$(FUZZTIME) ./internal/nullmodel/
	$(GO) test -run='^$$' -fuzz='^FuzzReadEdgeList$$' -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run='^$$' -fuzz='^FuzzReadCommunities$$' -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run='^$$' -fuzz='^FuzzReadEgoCircles$$' -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run='^$$' -fuzz='^FuzzFitKernels$$' -fuzztime=$(FUZZTIME) ./internal/powerlaw/
	$(GO) test -run='^$$' -fuzz='^FuzzHurwitzZeta$$' -fuzztime=$(FUZZTIME) ./internal/powerlaw/
	$(GO) test -run='^$$' -fuzz='^FuzzScoreBody$$' -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -run='^$$' -fuzz='^FuzzNCPBody$$' -fuzztime=$(FUZZTIME) ./internal/ncp/

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

# End-to-end load smoke: circled under 100 concurrent circleload
# clients — zero 5xx, result-cache hits under a -dup mix, clean SIGTERM
# drain, parseable final manifest.
loadsmoke:
	LOADSMOKE_DIR=$(LOADSMOKE_DIR) ./scripts/loadsmoke.sh

clean:
	rm -f circlebench circlebench.manifest.jsonl circled.manifest.jsonl $(SERVE_COVER) $(DETECT_COVER)
	rm -rf $(PROFILE_DIR)
