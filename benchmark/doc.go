// Command benchmark measures what one protocol run of the simulator costs,
// end to end and layer by layer, and checks every output it measures.
//
// It runs five workloads (mst-torus, pa-powerlaw, flood-powerlaw,
// wave-torus, serve-mix) through the repository's own entry points —
// graph generators, congest.NewNetworkWorkers, core.NewEngine, mst.Run,
// part/core Part-Wise Aggregation, and the bench job runner — on one
// sequential engine worker. Every output is checked against an offline
// oracle (Kruskal, per-part minimum, BFS distances), every rerun of an
// input must reproduce its rounds, messages and output digest, and at
// seed 1 those must also equal testdata/golden.json. Oracle work is never
// timed. Reported times are scaled to a reference host speed, measured in
// the same run on fixed work that does not depend on the program, so that
// other tenants slowing a shared host do not read as the program slowing.
//
// Usage, from the root of the repository (run.sh builds the binary into
// .bench_build/ and runs it):
//
//	bash benchmark/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-out FILE]
//	bash benchmark/run.sh compare [-bench BENCHMARK.json] BASE.jsonl... -- NEW.jsonl...
//
// Without -workload all five run one after another. With -trace 0 the
// end-to-end metrics of BENCHMARK.json are reported, with -trace 1 the
// per-layer ones; the last line of standard output is always one JSON
// object {"correct", "attempted", "failed", "metrics"}, and the exit code is
// non-zero when any run failed. -spans writes the traced run's spans, -out
// appends one JSON record per workload for compare.
//
// The package is a module of its own so that the repository's
// `go build ./...` and `go test ./...` do not build it; its tests run with
// `cd benchmark && go test .`, and `go test . -update` regenerates the
// golden file. README.md holds the metric dictionary and the measurements
// behind the choice of workloads.
package main
