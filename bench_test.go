// Root benchmark harness: one testing.B benchmark per paper table / figure
// (the experiment index is bench.Experiments()). Each benchmark runs the
// corresponding experiment and reports the headline simulation costs as
// custom metrics, so `go test -bench=. -benchmem` regenerates every
// reproduction artifact in one sweep. cmd/pabench prints the same
// experiments as full tables.
package main

import (
	"strconv"
	"testing"

	"shortcutpa/internal/bench"
)

// runExperiment executes one experiment per benchmark iteration and
// reports the sum of a numeric column as a custom metric.
func runExperiment(b *testing.B, id string, metricCol int, metricName string) {
	b.Helper()
	fn, ok := bench.Experiments()[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	var last float64
	for i := 0; i < b.N; i++ {
		table, err := fn(12345)
		if err != nil {
			b.Fatal(err)
		}
		total := 0.0
		for _, row := range table.Rows {
			if metricCol < len(row) {
				if v, err := strconv.ParseFloat(row[metricCol], 64); err == nil {
					total += v
				}
			}
		}
		last = total
	}
	b.ReportMetric(last, metricName)
}

// BenchmarkTable1ShortcutQuality regenerates Table 1: measured block
// parameter and congestion of constructed shortcuts per graph family.
func BenchmarkTable1ShortcutQuality(b *testing.B) {
	runExperiment(b, "T1", 8, "sum-congestion")
}

// BenchmarkTable2PARounds regenerates Table 2: PA round complexity per
// family, randomized and deterministic.
func BenchmarkTable2PARounds(b *testing.B) {
	runExperiment(b, "T2", 5, "sum-rand-rounds")
}

// BenchmarkFigure2BadExample regenerates the Figure 2 / Section 3.1
// message-separation demonstration.
func BenchmarkFigure2BadExample(b *testing.B) {
	runExperiment(b, "F2", 7, "sum-gap")
}

// BenchmarkCorollary13MST regenerates the MST experiment.
func BenchmarkCorollary13MST(b *testing.B) {
	runExperiment(b, "C13", 5, "sum-pa-rounds")
}

// BenchmarkCorollary14MinCut regenerates the approximate min-cut
// experiment.
func BenchmarkCorollary14MinCut(b *testing.B) {
	runExperiment(b, "C14", 5, "sum-ratio")
}

// BenchmarkCorollary15SSSP regenerates the approximate SSSP experiment.
func BenchmarkCorollary15SSSP(b *testing.B) {
	runExperiment(b, "C15", 2, "sum-meta-rounds")
}

// BenchmarkCorollaryA1Verification regenerates the graph-verification
// experiment.
func BenchmarkCorollaryA1Verification(b *testing.B) {
	runExperiment(b, "A1", 4, "sum-rounds")
}

// BenchmarkCorollaryA3KDominatingSet regenerates the k-dominating-set
// experiment.
func BenchmarkCorollaryA3KDominatingSet(b *testing.B) {
	runExperiment(b, "A3", 3, "sum-size")
}

// BenchmarkAblations regenerates the Section 3.2 design-choice ablations.
func BenchmarkAblations(b *testing.B) {
	runExperiment(b, "ABL", 2, "sum-messages")
}
