GO ?= go
GOFMT ?= gofmt

.PHONY: build vet test test-race bench bench-e2e metrics-check docs-check clean

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

# bench-e2e runs the repository benchmark (BENCHMARK.json): the four
# client-observed workloads against the real crserver binary, every
# answer validated. See benchmark/README.md; `-trace 1` gives the
# per-layer readings instead.
bench-e2e:
	$(GO) run ./benchmark -seed 1

# metrics-check gates the /metrics exposition: an in-process server is
# scraped, the output must parse as Prometheus text, and every exported
# metric family must be documented in docs/API.md.
metrics-check:
	$(GO) run ./cmd/metricscheck -docs docs/API.md

# docs-check gates the documentation: every relative markdown link in
# README.md, docs/ and the verify skill must resolve, every `make
# <target>` they name must be a target of this file, and the tree must
# be gofmt-clean.
docs-check:
	$(GO) run ./cmd/docscheck README.md docs/*.md .claude/skills/verify/SKILL.md
	@fmt_out="$$($(GOFMT) -l .)"; \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

clean:
	$(GO) clean ./...
