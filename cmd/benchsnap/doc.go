// Command benchsnap converts `go test -bench` output on stdin into a JSON
// benchmark snapshot (BENCH_<n>.json), the repo's perf-trajectory format:
// one snapshot is committed per perf-relevant PR so regressions are diffable
// in review. The snapshot keeps the raw benchmark lines verbatim alongside a
// parsed form. Two subcommands read results back:
//
//   - compare prints each side's median [min, max] n and the change of the
//     medians for every (benchmark, unit) both snapshots hold, with go
//     test's -<GOMAXPROCS> name suffix stripped, and names the benchmarks
//     only one side has. It only reports.
//   - gate checks the allocs/op of `go test -bench -benchmem` text on stdin
//     against the ceilings table and exits 1 on any breach, or when no row
//     matched a rule.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkEngine -benchmem ./internal/congest/ \
//	    | benchsnap -o BENCH_2.json -note "post flat-buffer refactor"
//	benchsnap compare BENCH_15.json BENCH_16.json
//	go test -run '^$' -bench BenchmarkEngine -benchmem ./internal/congest/ | benchsnap gate
//
// Snapshot ledger:
//
//   - There is no BENCH_8.json (that change was robustness-only) and no
//     BENCH_11.json (that change added the end-to-end benchmark, whose
//     records come from benchmark/run.sh).
//   - BenchmarkEngine storm rows are not comparable across BENCH_13 ->
//     BENCH_14: from BENCH_14 on the storm reads through ForRecv instead of
//     the deleted port-free bulk read, which aliased the slot range.
//   - BenchmarkEngineSparse rows lost their mode= level in BENCH_15 (one
//     scheduler): BENCH_14's mode=sparse rows are the comparable ones, its
//     mode=dense rows have no successor.
//   - BenchmarkEngineSparse family=sleep rows (timed wake-ups) start in
//     BENCH_16.
//   - BenchmarkEngineSparse family=walk and family=wave ns/round rows are
//     not comparable across BENCH_33 -> the next snapshot: from then on
//     they time only the sparse rounds, leaving out each phase's dense
//     round 0 (ns/op, awake% and allocs/op keep their definition).
package main
