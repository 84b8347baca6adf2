# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets: `make check` on every push/PR, `make test-full` nightly.

GO ?= go

.PHONY: build vet test test-race test-race-w4 test-race-faulty test-full fuzz-smoke bench bench-smoke bench-compare bench-allocs-check bench-e2e-test scan-joinings docs-check loc identity check

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
# rand.NewSource draw for draw, the engine must match the reference
# CONGEST model (internal/congest/model_test.go) transcript for transcript,
# and the edge-list loader must error or give a graph that re-parses
# unchanged from its own edge list. `go test -fuzz` takes one target per
# invocation, hence the five runs. FuzzEngineVsModel's inputs are slow to
# execute, so minimizing each new interesting input under the default 60 s
# bound stalled its leg at 0 execs/s for 9-15 s at a time; a 1 s bound
# keeps the leg fuzzing (a failing input is still saved, less minimized).
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseScenario -fuzztime=$(FUZZTIME) ./internal/congest/
	$(GO) test -run='^$$' -fuzz=FuzzParseJobSpec -fuzztime=$(FUZZTIME) ./internal/bench/
	$(GO) test -run='^$$' -fuzz=FuzzNodeRand -fuzztime=$(FUZZTIME) ./internal/congest/
	$(GO) test -run='^$$' -fuzz=FuzzEngineVsModel -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/congest/
	$(GO) test -run='^$$' -fuzz=FuzzLoadEdgeList -fuzztime=$(FUZZTIME) ./internal/graph/

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

# Net non-test Go lines of the working tree against BASE (default HEAD,
# the parent commit of uncommitted work; BASE=HEAD~1 after committing):
# the number the ROADMAP's standing process asks every change to report.
# It also counts the non-test NodeProc implementations (Step methods on
# congest.Ctx plus NodeProcFunc literals) at BASE and in the working tree.
# git diff sees tracked files only, so stage new files first (git add -A).
BASE ?= HEAD
loc:
	@stat=$$(git diff --shortstat $(BASE) -- '*.go' ':(exclude)*_test.go'); \
	ins=$$(echo "$$stat" | grep -o '[0-9]* insertion' | grep -o '[0-9]*'); \
	del=$$(echo "$$stat" | grep -o '[0-9]* deletion' | grep -o '[0-9]*'); \
	echo "non-test Go vs $(BASE):$${stat:- no change}"; \
	echo "net non-test Go lines: $$(( $${ins:-0} - $${del:-0} ))"; \
	re='Step\(ctx \*congest\.Ctx|NodeProcFunc\('; \
	old=$$(git grep -h -E "$$re" $(BASE) -- '*.go' ':(exclude)*_test.go' | wc -l); \
	new=$$(git grep -h -E "$$re" -- '*.go' ':(exclude)*_test.go' | wc -l); \
	echo "non-test NodeProc implementations: $$old at $(BASE), $$new now ($$(( new - old )))"

# Output identity against BASE (default HEAD): builds pabench from
# `git archive $(BASE)` in a temp dir (no worktree, .git untouched) and
# from the working tree, runs on both every experiment, the all-protocols
# x eight families x seeds 1-12 jobs spec (768 runs), and that spec under a
# crash/random-fault scenario, strips only wall time (the "ms" field and the
# summary's timing), and fails on any difference. The families are the
# ones every revision since the jobs mode accepts, so BASE runs the same
# spec. ~35 s on 2 vCPUs, both builds included. Not in CI: its checkout is
# shallow.
identity:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	jobs='graphs=torus:100,powerlaw:100,gridstar:100,grid:100,ladder:100,random:100,star:100,prefattach:100;protocols=all;seeds=1-12'; \
	mkdir "$$tmp/src"; git archive $(BASE) | tar -x -C "$$tmp/src" || exit 1; \
	(cd "$$tmp/src" && $(GO) build -o "$$tmp/base" ./cmd/pabench) || exit 1; \
	$(GO) build -o "$$tmp/work" ./cmd/pabench || exit 1; \
	for side in base work; do \
		bin="$$tmp/$$side"; \
		{ "$$bin" -seed 1 2>&1; echo "exit $$?"; \
		  "$$bin" -jobs "$$jobs" -jobs-pool 1 2>&1; echo "exit $$?"; \
		  "$$bin" -jobs "$$jobs" -jobs-pool 1 -scenario 'crash=7@40;seed-faults=0.002' 2>&1; echo "exit $$?"; \
		} | sed -e 's/,"ms":[^,}]*//' -e 's/ in [^ ]* — [0-9.]* runs\/sec//' > "$$tmp/$$side.out"; \
	done; \
	if diff "$$tmp/base.out" "$$tmp/work.out"; then \
		echo "identity: no difference vs $(BASE) ($$(wc -l < "$$tmp/work.out") lines)"; \
	else echo "identity: output differs from $(BASE)"; exit 1; fi

check: build vet docs-check test-race bench-e2e-test
