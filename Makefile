# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets: `make check` on every push/PR, `make test-full` nightly.

GO ?= go

.PHONY: build vet test test-race test-race-w4 test-race-faulty test-full fuzz-smoke bench bench-smoke bench-compare bench-allocs-check bench-e2e-test scan-joinings docs-check check

# PR number stamped into benchmark snapshots (BENCH_$(PR).json), and the
# provenance note recorded inside. PR defaults to one past the newest
# committed snapshot; override both per perf PR, e.g.
#   make bench PR=5 BENCH_NOTE="batched wake scan; vs BENCH_2: ..."
PR ?= $(shell expr $$(git ls-files 'BENCH_*.json' | tr -dc '0-9\n' | sort -n | tail -1) + 1)
BENCH_NOTE ?= engine benchmark snapshot (PR $(PR)); compare against the previous BENCH_<n>.json via make bench-compare

build:
	$(GO) build ./...

# vet also fails on gofmt drift, so `make check` and CI catch it.
vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt drift in:"; gofmt -l .; exit 1; }

# Fast suite: every package, seconds of wall clock.
test:
	$(GO) test -short ./...

# Fast suite under the race detector — the standing check on the parallel
# CONGEST engine (internal/congest/parallel.go). CI runs this twice: once
# as-is (sequential default) and once with CONGEST_WORKERS=4, which makes
# every network default to the parallel engine so the pool and its atomic
# wake bits run under the race detector across the whole suite.
test-race:
	$(GO) test -race -short ./...

# The workers=4 leg of the race matrix, runnable locally.
test-race-w4:
	CONGEST_WORKERS=4 $(GO) test -race -short ./...

# The fault-injection race leg: drain a faulty-scenario jobs queue over the
# shared pool with every network on the parallel engine (CONGEST_WORKERS=4),
# under the race detector. Faults are applied by the coordinator between
# worker waves; this leg would trip -race if that ever stopped being true.
test-race-faulty:
	CONGEST_WORKERS=4 $(GO) test -race -count=1 \
		-run 'TestJobsFaultyScenarioSharedPoolRace|TestJobsScenarioDeterministicAcrossPoolAndCache|TestScenarioParallelMatchesSequential' \
		./internal/bench/ ./internal/congest/

# Full suite, including the multi-second experiment sweeps.
test-full:
	$(GO) test ./...

# Short native-fuzz pass (nightly CI): the jobs spec and the fault-scenario
# spec must never panic, every accepted scenario must survive a
# parse-print-parse round trip, the per-node PRNG source must match
# rand.NewSource draw for draw, and the engine must match the reference
# CONGEST model (internal/congest/model_test.go) transcript for transcript.
# `go test -fuzz` takes one target per invocation, hence the four runs.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseScenario -fuzztime=$(FUZZTIME) ./internal/congest/
	$(GO) test -run='^$$' -fuzz=FuzzParseJobSpec -fuzztime=$(FUZZTIME) ./internal/bench/
	$(GO) test -run='^$$' -fuzz=FuzzNodeRand -fuzztime=$(FUZZTIME) ./internal/congest/
	$(GO) test -run='^$$' -fuzz=FuzzEngineVsModel -fuzztime=$(FUZZTIME) ./internal/congest/

# Engine benchmarks, snapshotted to BENCH_$(PR).json for the perf
# trajectory (cmd/benchsnap documents the format and the ledger): the
# graph-family x worker-count matrix on n=10k graphs, the
# BenchmarkNetworkSetup ladder n=10^4..10^6, BenchmarkJobThroughput
# (runs/sec at pool saturation), the BenchmarkRouter Algorithm 1/2 rows
# and the BenchmarkNodeRand per-node PRNG rows.
bench:
	$(GO) test -run='^$$' -bench='BenchmarkEngine|BenchmarkNetworkSetup|BenchmarkJobThroughput|BenchmarkRouter|BenchmarkNodeRand' -benchmem -benchtime=5x -count=3 ./internal/congest/ ./internal/bench/ ./internal/core/ \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchsnap -o BENCH_$(PR).json -note "$(BENCH_NOTE)"

# One-iteration pass over every benchmark in the repo: keeps benchmark code
# compiling and running between perf PRs (nightly CI).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Median [min, max] n and change per (benchmark, unit) between two
# snapshots, by default the two newest committed ones (nightly CI appends
# the output to its job summary). Reports only; never fails on a change.
BENCH_OLD ?= $(shell git ls-files 'BENCH_*.json' | sort -t_ -k2n | tail -2 | head -1)
BENCH_NEW ?= $(shell git ls-files 'BENCH_*.json' | sort -t_ -k2n | tail -1)
bench-compare:
	@$(GO) run ./cmd/benchsnap compare $(BENCH_OLD) $(BENCH_NEW)

# Allocation regression gate (nightly CI): allocs/op of the engine, phase
# setup, router, infrastructure-build and per-node PRNG rows against the
# ceilings pinned in
# cmd/benchsnap (the ceilings table, each with its reason).
bench-allocs-check:
	@$(GO) test -run='^$$' -bench='^BenchmarkEngine$$|^BenchmarkEngineSetup$$|^BenchmarkEngineSparse$$|^BenchmarkRouter$$|^BenchmarkBuildInfra$$|^BenchmarkNodeRand$$' -benchmem -benchtime=5x ./internal/congest/ ./internal/core/ \
		| $(GO) run ./cmd/benchsnap gate

# The end-to-end benchmark's fast test: its oracles and the golden costs in
# benchmark/testdata/golden.json. benchmark/ is a module of its own, so
# `go test ./...` at the root never builds it; this target does. It is part
# of `make check`: benchmark/ compiles against internal/congest's surface
# (NewNetworkWorkers, MemFootprint, ActivityStats, Phases), which an engine
# change can break while `go build ./...` stays green.
bench-e2e-test:
	cd benchmark && $(GO) test .

# Randomized-joining scans (nightly CI): mst and verify on three families
# x 600 seeds, then mincut on a torus x 1,500 seeds, all on the randomized
# engine. Every run must succeed: pabench exits non-zero on a failed run,
# and this target then prints the failed runs' JSON lines. ~26 s on 2 vCPUs.
scan-joinings:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for spec in 'graphs=torus:64,powerlaw:64,gridstar:60;protocols=mst,verify;seeds=1-600' \
		'graphs=torus:64;protocols=mincut;seeds=1-1500'; do \
		$(GO) run ./cmd/pabench -jobs "$$spec" > "$$out" || { grep '"err"' "$$out"; exit 1; }; \
	done

# Every package must carry its package comment in a doc.go file, so
# `go doc` stays useful and docs don't drift into scattered lead files.
# Run in CI on every push/PR (part of `make check`).
docs-check:
	@fail=0; \
	for d in internal/*/ cmd/*/; do \
		if [ ! -f "$$d"doc.go ]; then \
			echo "docs-check: $${d}doc.go missing"; fail=1; \
		elif ! grep -Eq '^// (Package|Command) ' "$$d"doc.go; then \
			echo "docs-check: $${d}doc.go lacks a '// Package ...' comment"; fail=1; \
		fi; \
	done; \
	[ $$fail -eq 0 ] && echo "docs-check: all packages carry doc.go package comments"; \
	exit $$fail

check: build vet docs-check test-race bench-e2e-test
