#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout:
#
#   bash benchmark/run.sh --workload mst-torus --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh -seed 1                      # all five workloads
#   bash benchmark/run.sh compare base.jsonl -- new.jsonl
#
# Everything the build writes (binary, Go build cache, temporary files) stays
# under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# Telemetry off: the go command then writes no counters and starts no
# background process of its own.
echo off > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd benchmark && go build -o "$out/benchmark" .)
# Freed heap pages go back to the kernel with MADV_FREE, so the benchmark's
# forced collections do not make the next run fault its heap back in page by
# page: a drain of serve-mix took ~22,000 minor faults with MADV_DONTNEED
# and ~500 with this, and how long a fault takes depends on the host.
export GODEBUG=madvdontneed=0
exec "$out/benchmark" "$@"
