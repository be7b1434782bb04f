GO ?= go
GOFMT ?= gofmt
# BENCHTIME controls the bench-json run: the default 1x is a smoke
# pass (does every bench still run?); override with BENCHTIME=1s for
# numbers worth tracking.
BENCHTIME ?= 1x

.PHONY: build test test-race bench bench-json bench-e2e bench-compare vet docs-check metrics-check clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

# test-race covers the packages with real concurrency: the index
# store's single-flight, the walk worker pool (including the batched
# cohort stepper's pooled per-worker scratch), the walk-endpoint
# cache (singleflight recording), the scheduler and its intra-batch
# subquery pool (concurrent submit + mid-batch cancel, admission
# floods), the HTTP layer, the traffic sketch hammered from many
# recorders, the obs registry's lock-free counters and histograms,
# the graph's derived views (built once, then read concurrently by
# every push and walk worker), the artifact cache's single-flight, and
# the registry's score-vector memo (query sets racing for shared
# vectors).
test-race:
	$(GO) test -race ./internal/obs/ ./internal/bippr/ ./internal/task/ ./internal/server/ ./internal/traffic/ ./internal/graph/ ./internal/algo/ ./internal/artifact/

bench:
	$(GO) test -run NONE -bench . -benchmem .

# bench-json runs the BiPPR benchmark family and emits BENCH_bippr.json
# (name / ns-per-op / bytes-per-op), the machine-readable perf artifact
# CI archives per commit. The bench output lands in a temp file first
# so a failed bench run fails the target instead of being masked by
# the pipe into the converter.
bench-json:
	@out=$$(mktemp); \
	$(GO) test -run NONE -bench 'BiPPR|PPRTarget|TargetIndexStorage|EndpointPersist|ObsOverhead|AdmissionOverhead' -benchmem -benchtime $(BENCHTIME) . > $$out || { cat $$out; rm -f $$out; exit 1; }; \
	$(GO) run ./cmd/benchjson -out BENCH_bippr.json < $$out || { rm -f $$out; exit 1; }; \
	rm -f $$out
	@echo wrote BENCH_bippr.json

# bench-e2e runs the repository benchmark (BENCHMARK.json): the four
# client-observed workloads against the real crserver binary, every
# answer validated. See benchmark/README.md; `-trace 1` gives the
# per-layer readings instead.
bench-e2e:
	$(GO) run ./benchmark -seed 1

# bench-compare diffs two bench-json reports: OLD/NEW default to the
# CI artifact names; exits 1 when any benchmark regressed past 2x
# ns/op (CI runs it continue-on-error so it informs, never gates).
OLD ?= BENCH_prev.json
NEW ?= BENCH_bippr.json
bench-compare:
	$(GO) run ./cmd/benchjson -compare $(OLD) $(NEW)

# bench-history compares NEW against the rolling median of the last
# WINDOW_N runs kept in WINDOW, then appends it — the noise-resistant
# variant CI uses (one slow shared-runner baseline can no longer flag
# every following run).
WINDOW ?= BENCH_window.json
WINDOW_N ?= 8
bench-history:
	$(GO) run ./cmd/benchjson -history $(WINDOW) -window $(WINDOW_N) $(NEW)

# metrics-check gates the /metrics exposition: an in-process server is
# scraped, the output must parse as Prometheus text, and every exported
# metric family must be documented in docs/API.md.
metrics-check:
	$(GO) run ./cmd/metricscheck -docs docs/API.md

# docs-check gates the documentation: every relative markdown link in
# README.md and docs/ must resolve, and the tree must be gofmt-clean.
docs-check:
	$(GO) run ./cmd/docscheck README.md docs/*.md
	@fmt_out="$$($(GOFMT) -l .)"; \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

clean:
	$(GO) clean ./...
