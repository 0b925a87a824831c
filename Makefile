GO ?= go

.PHONY: all build vet fmt-check lint lint-budget loc test race equivalence dsweep-smoke fuzz bench bench-baseline bench-smoke figures quick-figures trace demo demo-smoke plan-smoke clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# memca-lint is the project's custom analyzer suite (sim determinism,
# clock discipline, float comparison, dropped errors, hot-path allocation
# discipline, atomic-access discipline) plus two whole-module checks: the
# allocbound escape-budget gate over the zero-alloc packages, and testonly
# (no code kept alive only by its own tests); see DESIGN.md. On budget drift, fix
# the allocation or accept it with `make lint-budget` and commit the
# regenerated internal/lint/testdata/escape_budget.json.
lint: fmt-check
	$(GO) run ./cmd/memca-lint ./...

# Every Go file must be gofmt-clean: fails listing the files gofmt -l
# reports (fix with gofmt -w).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

# Deliberate escape-budget refresh: re-run the compiler's escape analysis
# over the budgeted packages and rewrite the checked-in budget in place.
lint-budget:
	$(GO) run ./cmd/memca-lint -update-budget

# Non-test Go lines: the size every simplicity change reports, counted
# the same way each time (perfbench is a separate module; testdata holds
# analyzer fixtures, not program code).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path '*/testdata/*' | xargs cat | wc -l

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	$(GO) test -race -count=5 ./internal/sweep

# Parallel-vs-serial determinism proof: every sweep-converted driver and
# the replication helper must produce identical results and byte-identical
# CSV artifacts for workers 1, 4, and 8 (quick horizons); the dsweep
# fabric additionally proves shards 1/2/4/8 and kill+resume byte-identical
# to the in-process path.
equivalence:
	$(GO) test -run 'TestSweepWorkerEquivalence|TestSweepProgressTotals|TestReplicateWorkerEquivalence|TestDistShardEquivalence|TestDistKillResumeEquivalence' -v ./internal/figures ./internal/core

# Distributed-sweep smoke: coordinate the quick interval ablation (4 jobs)
# across 3 worker subprocesses, kill shard 0's worker after its first
# record, resume it mid-shard, and diff the merged artifact, summary and
# CSVs against a single-process run — any byte of divergence fails.
dsweep-smoke:
	$(GO) run ./cmd/memca-sweep smoke

# Short fuzz passes over every fuzz target in the module: each package
# of `go list ./...` is asked for its targets with `go test -list`, and
# each target runs on its own (seed corpora are checked in under the
# packages' testdata/fuzz or seeded in the fuzz functions), so a new or
# deleted Fuzz function needs no edit here. FUZZTIME tunes the per-target
# budget.
FUZZTIME = 30s
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg); \
		for target in $$(echo "$$targets" | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# Engine performance regression report and gate: run the kernel and
# headline-figure benchmarks for real (default benchtime), diff them
# against the checked-in baseline into BENCH.json, and fail on contract
# violations — allocs/op may never grow (the zero-allocation hot paths,
# traced and untraced, are exact contracts on any machine); ns/op is
# additionally gated per the baseline's gate_ns_pct when the CPU matches
# the one that produced the baseline. The unanchored QueueingThroughput
# pattern also matches its Traced variant; ExperimentMinute is one
# simulated minute of the default experiment, the engine hot path end to
# end; CSVExport pins the streaming CSV writers at a fixed count per file.
BENCH_REGRESSION = BenchmarkEngineEvents|BenchmarkQueueingThroughput|BenchmarkExperimentMinute|BenchmarkFig2TailAmplification|BenchmarkStatsRecord|BenchmarkFeatureExtract|BenchmarkSpanExport|BenchmarkCSVExport
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_REGRESSION)' -benchmem . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -baseline bench/baseline.json -gate \
			-args "go test -run ^$$ -bench '$(BENCH_REGRESSION)' -benchmem ." \
			-o BENCH.json

# Deliberate baseline refresh: re-measure the regression set and rewrite
# bench/baseline.json in place. gate_ns_pct resets to 0 on capture —
# re-add tolerances by hand (they are contracts, not measurements).
bench-baseline:
	$(GO) test -run '^$$' -bench '$(BENCH_REGRESSION)' -benchmem . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -baseline-out bench/baseline.json \
			-commit "$$(git rev-parse --short HEAD)" \
			-note "captured by make bench-baseline"

# One iteration of every benchmark — a fast smoke check that each figure
# pipeline still runs end to end.
bench-smoke:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Regenerate every paper table/figure plus ablations, the defense matrix,
# and the jitter-evasion study into out/.
figures:
	$(GO) run ./cmd/memca-bench -out out

quick-figures:
	$(GO) run ./cmd/memca-bench -out out -quick

# Per-request causal traces: attacked + baseline runs with full tracing,
# exporting Chrome trace JSON, attribution CSVs, and dual-resolution
# timelines into out/trace/.
trace:
	$(GO) run ./cmd/memca-trace -out out/trace

# Config-file smoke: plan the RUBBoS plan file and the paper-default
# scenario file (forecast shaping, default spec sections) on the reduced
# -quick search space, then simulate the plan file's spec-described
# system. Exercises core.Load, the solver, both report formats, and
# Config.FromSpec end to end.
plan-smoke:
	$(GO) run ./cmd/memca-plan -quick -config configs/plan-rubbos.json
	$(GO) run ./cmd/memca-plan -quick -config configs/paper-default.json -json
	$(GO) run ./cmd/memca-sim -config configs/plan-rubbos.json

# Live end-to-end demo on real sockets.
demo:
	$(GO) run ./cmd/memca-demo

# Short traced demo run (real sockets, causal tracing on): exports Chrome
# trace, OTLP/JSON, and attribution CSV into out/demo/ — the live half of
# the shared telemetry pipeline, small enough for CI.
demo-smoke:
	$(GO) run ./cmd/memca-demo -duration 3s -clients 8 \
		-trace-out out/demo/trace.json \
		-otlp-out out/demo/otlp.json \
		-attrib-out out/demo/attribution.csv

clean:
	rm -rf out
