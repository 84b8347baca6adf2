# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets: `make check` on every push/PR, `make test-full` nightly.

GO ?= go

.PHONY: build vet test test-race test-race-w4 test-race-faulty test-full fuzz-smoke bench bench-smoke bench-compare bench-allocs-check bench-e2e-test scan-joinings docs-check check

# PR number stamped into benchmark snapshots (BENCH_$(PR).json), and the
# provenance note recorded inside; override both per perf PR, e.g.
#   make bench PR=5 BENCH_NOTE="batched wake scan; vs BENCH_2: ..."
PR ?= 16
BENCH_NOTE ?= engine benchmark snapshot (PR $(PR)); compare against the previous BENCH_<n>.json via benchstat

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

# Engine benchmarks (graph-family x worker-count matrix on n=10k graphs,
# plus the BenchmarkNetworkSetup cold-construction ladder n=10^4..10^6,
# the BenchmarkJobThroughput multi-run serving row — runs/sec at pool
# saturation — the BenchmarkRouter Algorithm 1/2 router rows: one
# verification or aggregation per op on a 32x32 torus and an n=3000
# power-law graph — and the BenchmarkNodeRand per-node PRNG rows: a node's
# first draw and a 300-draw node), snapshotted to a benchstat-friendly BENCH_$(PR).json for the
# perf trajectory. Replay into benchstat with: jq -r '.raw[]' BENCH_$(PR).json
bench:
	$(GO) test -run='^$$' -bench='BenchmarkEngine|BenchmarkNetworkSetup|BenchmarkJobThroughput|BenchmarkRouter|BenchmarkNodeRand' -benchmem -benchtime=5x -count=3 ./internal/congest/ ./internal/bench/ ./internal/core/ \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchsnap -o BENCH_$(PR).json -note "$(BENCH_NOTE)"

# One-iteration pass over every benchmark in the repo: keeps benchmark code
# compiling and running between perf PRs (nightly CI).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# benchstat comparison of two committed benchmark snapshots (nightly CI
# appends the output to its job summary for the perf trajectory). Falls
# back to naming the raw snapshots when jq/benchstat are unavailable.
# Snapshot ledger note: there is deliberately no BENCH_8.json — PR 8 was
# robustness-only (fault injection) and changed no perf surface, so the
# trajectory steps BENCH_7 -> BENCH_9 -> BENCH_10. Nor is there a
# BENCH_11.json: PR 11 added the end-to-end benchmark (benchmark/), whose
# records come from benchmark/run.sh, not from these microbenchmarks.
# BenchmarkEngine storm rows are not comparable across BENCH_13 -> BENCH_14:
# from BENCH_14 on the storm reads through ForRecv (the form every protocol
# uses) instead of the deleted port-free bulk read, which aliased the slot
# range. BenchmarkEngineSparse rows lost their mode= level in BENCH_15: the
# engine has one scheduler, so BENCH_14's mode=sparse rows (the default
# scheduler of the day) are the comparable ones and its mode=dense rows
# have no successor. BENCH_16 adds the family=sleep rows (timed wake-ups);
# earlier snapshots have none.
BENCH_OLD ?= BENCH_15.json
BENCH_NEW ?= BENCH_16.json
bench-compare:
	@if ! command -v jq >/dev/null 2>&1; then \
		echo "bench-compare: jq unavailable; raw snapshots: $(BENCH_OLD) $(BENCH_NEW)"; exit 0; fi; \
	jq -r '.raw[]' $(BENCH_OLD) > /tmp/bench_old.txt; \
	jq -r '.raw[]' $(BENCH_NEW) > /tmp/bench_new.txt; \
	echo "benchstat $(BENCH_OLD) vs $(BENCH_NEW):"; \
	if command -v benchstat >/dev/null 2>&1; then \
		benchstat /tmp/bench_old.txt /tmp/bench_new.txt; \
	else \
		$(GO) run golang.org/x/perf/cmd/benchstat@latest /tmp/bench_old.txt /tmp/bench_new.txt \
		|| echo "bench-compare: benchstat unavailable; raw snapshots: $(BENCH_OLD) $(BENCH_NEW)"; \
	fi; \
	echo ""; \
	echo "setup-storm allocs/op (BenchmarkEngineSetup, n=10k torus; the phase-setup trajectory — proc=shared is the only row from BENCH_14 on, the scratch=* rows of earlier snapshots measured the retired per-node proc form):"; \
	for f in $(BENCH_OLD) $(BENCH_NEW); do \
		echo "  $$f:"; \
		jq -r '.raw[]' $$f | grep -E 'BenchmarkEngineSetup/family=torus' \
			| awk '{printf "    %-55s %s allocs/op\n", $$1, $$(NF-1)}' | sort -u; \
	done; \
	echo ""; \
	echo "network-setup ms/op (BenchmarkNetworkSetup ladder; the cold-construction trajectory):"; \
	for f in $(BENCH_OLD) $(BENCH_NEW); do \
		echo "  $$f:"; \
		jq -r '.raw[]' $$f | grep -E 'BenchmarkNetworkSetup/' \
			| awk '{printf "    %-40s %.1f ms/op  (%s allocs/op)\n", $$1, $$3/1e6, $$(NF-1)}' | sort -u; \
		jq -r '.raw[]' $$f | grep -qE 'BenchmarkNetworkSetup/' || echo "    (no BenchmarkNetworkSetup rows in this snapshot)"; \
	done; \
	echo ""; \
	echo "jobs throughput (BenchmarkJobThroughput; the multi-run serving trajectory):"; \
	for f in $(BENCH_OLD) $(BENCH_NEW); do \
		echo "  $$f:"; \
		jq -r '.raw[]' $$f | grep -E 'BenchmarkJobThroughput/' \
			| awk '{for (i=2; i<=NF; i++) if ($$i == "runs/sec") printf "    %-40s %s runs/sec\n", $$1, $$(i-1)}' | sort -u; \
		jq -r '.raw[]' $$f | grep -qE 'BenchmarkJobThroughput/' || echo "    (no BenchmarkJobThroughput rows in this snapshot)"; \
	done; \
	echo ""; \
	echo "skewed families (BenchmarkEngine star/powerlaw; ns/round and the shard-max/mean imbalance metric):"; \
	for f in $(BENCH_OLD) $(BENCH_NEW); do \
		echo "  $$f:"; \
		jq -r '.raw[]' $$f | grep -E 'BenchmarkEngine/family=(star|powerlaw)/' \
			| awk '{line = "    " $$1; for (i=2; i<=NF; i++) { if ($$i == "ns/round") line = line sprintf("  %s ns/round", $$(i-1)); if ($$i == "shard-max/mean") line = line sprintf("  %sx shard-max/mean", $$(i-1)) } print line}' | sort -u; \
		jq -r '.raw[]' $$f | grep -qE 'BenchmarkEngine/family=(star|powerlaw)/' || echo "    (no skewed-family rows in this snapshot)"; \
	done; \
	echo ""; \
	echo "bytes per edge slot (BenchmarkEngine bytes/slot; resident slot-array memory, Network.MemFootprint):"; \
	for f in $(BENCH_OLD) $(BENCH_NEW); do \
		echo "  $$f:"; \
		jq -r '.raw[]' $$f | grep -E 'BenchmarkEngine/family=' \
			| awk '{for (i=2; i<=NF; i++) if ($$i == "bytes/slot") printf "    %-55s %s bytes/slot\n", $$1, $$(i-1)}' | sort -u; \
		jq -r '.raw[]' $$f | grep -E 'BenchmarkEngine/family=' | grep -q 'bytes/slot' \
			|| echo "    (no bytes/slot metric in this snapshot — pre-PR-9 layout: 120 B of Incoming arrays + 16 B of int64 stamps per slot)"; \
	done; \
	echo ""; \
	echo "sparse-activity rounds (BenchmarkEngineSparse; ns/round at the row's awake fraction; mode=dense rows of pre-BENCH_15 snapshots are dropped, mode=sparse is printed without its mode level):"; \
	for f in $(BENCH_OLD) $(BENCH_NEW); do \
		echo "  $$f:"; \
		jq -r '.raw[]' $$f | grep -E 'BenchmarkEngineSparse/' | grep -v 'mode=dense' | sed 's|/mode=sparse||' \
			| awk '{line = "    " $$1; for (i=2; i<=NF; i++) { if ($$i == "ns/round") line = line sprintf("  %s ns/round", $$(i-1)); if ($$i == "awake%") line = line sprintf("  %s awake%%", $$(i-1)) } print line}' | sort -u; \
		jq -r '.raw[]' $$f | grep -qE 'BenchmarkEngineSparse/' \
			|| echo "    (no sparse-rounds rows — sparse execution landed in PR 10; BENCH_9.json and earlier are dense-only baselines)"; \
	done; \
	echo ""; \
	echo "router (BenchmarkRouter; one Algorithm 2 verification or Algorithm 1 aggregation per op):"; \
	for f in $(BENCH_OLD) $(BENCH_NEW); do \
		echo "  $$f:"; \
		jq -r '.raw[]' $$f | grep -E 'BenchmarkRouter/' \
			| awk '{printf "    %-62s %.2f ms/op  (%s allocs/op)\n", $$1, $$3/1e6, $$(NF-1)}' | sort -u; \
		jq -r '.raw[]' $$f | grep -qE 'BenchmarkRouter/' \
			|| echo "    (no router rows — BenchmarkRouter landed in PR 12)"; \
	done; \
	echo ""; \
	echo "per-node PRNG (BenchmarkNodeRand; a node's first Float64, and 300 draws across the math/rand fallback):"; \
	for f in $(BENCH_OLD) $(BENCH_NEW); do \
		echo "  $$f:"; \
		jq -r '.raw[]' $$f | grep -E 'BenchmarkNodeRand/' \
			| awk '{printf "    %-40s %s ns/op  %s B/op  (%s allocs/op)\n", $$1, $$3, $$(NF-3), $$(NF-1)}' | sort -u; \
		jq -r '.raw[]' $$f | grep -qE 'BenchmarkNodeRand/' \
			|| echo "    (no per-node PRNG rows — BenchmarkNodeRand landed in PR 13)"; \
	done

# Allocation regression gate (nightly CI): the engine's steady-state round
# loop must stay allocation-free on the sequential engine and within pool
# overhead on the parallel one, and phase setup must stay at its two
# pinned workload-side allocations (the closure and counter documented on
# BenchmarkEngineSetup). Ceilings carry small headroom over the pinned
# values (0 / 31 / 52 / 2) so scheduler wobble in the pool rows doesn't
# flake the gate; a layout or setup regression blows straight past them.
# The BenchmarkEngineSparse rows extend the gate to sparse activity: a
# whole multi-thousand-round sequential phase is pinned at literally 0
# allocs/op (the bitset drain runs in preallocated state), and the
# parallel rows stay within the same pool overhead as the storm (28
# measured, 40 ceiling). The family=sleep rows hold the timed wake-up path
# (Ctx.WakeAt and its heap) to the same two ceilings: the heap and the
# workers' wake-up buffers live in recycled network-lifetime storage.
# The BenchmarkRouter rows pin one Algorithm 1/2 router run (verification or
# aggregation) at 512 allocs/op (3-170 measured at 5x, up to ~250 in a
# single op while recycled slices settle): its per-node state lives in
# recycled flat records; per-node maps would cost 40k-1.3M allocs per op
# on these n>=1024 graphs.
# The BenchmarkNodeRand rows pin a node's PRNG at 4 allocs/op: 2 measured
# for a first draw (the rand.Rand and its 24-byte source), 3 once a node
# passes 273 draws and builds its math/rand fallback.
bench-allocs-check:
	@$(GO) test -run='^$$' -bench='^BenchmarkEngine$$|^BenchmarkEngineSetup$$|^BenchmarkEngineSparse$$|^BenchmarkRouter$$|^BenchmarkNodeRand$$' -benchmem -benchtime=5x ./internal/congest/ ./internal/core/ \
		| tee /tmp/bench_allocs.txt \
		| awk ' \
		/^Benchmark/ { \
			limit = -1; \
			if ($$1 ~ /^BenchmarkEngineSetup\//) { if ($$1 ~ /proc=shared/) limit = 4 } \
			else if ($$1 ~ /^BenchmarkRouter\//) limit = 512; \
			else if ($$1 ~ /^BenchmarkNodeRand\//) limit = 4; \
			else if ($$1 ~ /^BenchmarkEngineSparse\//) { \
				if ($$1 ~ /workers=1($$|-)/) limit = 0; \
				else if ($$1 ~ /workers=4($$|-)/) limit = 40; \
			} \
			else if ($$1 ~ /^BenchmarkEngine\//) { \
				if ($$1 ~ /workers=1($$|-)/) limit = 2; \
				else if ($$1 ~ /workers=4($$|-)/) limit = 40; \
				else if ($$1 ~ /workers=8($$|-)/) limit = 64; \
			} \
			if (limit < 0) next; \
			allocs = ""; \
			for (i = 2; i <= NF; i++) if ($$i == "allocs/op") allocs = $$(i-1); \
			if (allocs == "") next; \
			checked++; \
			if (allocs + 0 > limit) { printf "bench-allocs-check: %s at %s allocs/op exceeds pinned ceiling %d\n", $$1, allocs, limit; fail = 1 } \
		} \
		END { \
			if (checked == 0) { print "bench-allocs-check: no benchmark rows parsed"; exit 1 } \
			if (fail) exit 1; \
			printf "bench-allocs-check: %d rows within pinned allocs/op ceilings\n", checked \
		}'

# The end-to-end benchmark's fast test: its oracles and the golden costs in
# benchmark/testdata/golden.json. benchmark/ is a module of its own, so
# `go test ./...` at the root never builds it; this target does.
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

check: build vet docs-check test-race
