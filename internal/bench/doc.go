// Package bench defines the experiments that regenerate every table and
// figure of the paper's evaluation (Experiments is the experiment index).
// Each experiment returns a Table that cmd/pabench prints and
// bench_test.go reports. ScaleSweep (cmd/pabench -sweep) is the odd one out:
// it measures the simulator itself on tori up to n=10^6 rather than a
// paper claim.
//
// The package also hosts the multi-run serving mode (cmd/pabench -jobs,
// jobs.go): a JobSpec expands protocols x graph families x sizes x seeds
// into a work queue drained over one shared worker pool
// (congest.RunPool), streaming one JSON Result per completed run and
// reusing constructed networks across same-topology jobs through
// congest.Network.Reset — bit-identically, per the equivalence harness's
// reuse leg. BenchmarkJobThroughput measures runs/sec at pool saturation,
// the serving-mode trajectory make bench snapshots.
package bench
