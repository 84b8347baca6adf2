package core

import (
	"fmt"
	"math/rand"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
)

// BenchmarkRouter times the Algorithm 1/2 router alone: one verification
// (verifyParts over every part) or one aggregation (SolveWithInfra) per
// iteration, over infrastructure built once outside the timer. Every PA
// call in the paper's applications runs through this primitive, so its
// ns/op and allocs/op are the host-time cost of a PA call. The torus runs
// on two deep combs (block routing and beacon paths), the power-law graph
// on DFS-segment parts six eccentricities long (the end-to-end benchmark's
// pa-powerlaw instance shape). `make bench-allocs-check` pins allocs/op.
func BenchmarkRouter(b *testing.B) {
	pl, plParts := powerLaw3000()
	graphs := []struct {
		name  string
		g     *graph.Graph
		parts []int
	}{
		{"torus32", graph.Torus(32, 32), combParts(32, 32)},
		{"powerlaw3000", pl, plParts},
	}
	for _, gr := range graphs {
		for _, mode := range []Mode{Deterministic, Randomized} {
			b.Run(fmt.Sprintf("graph=%s/mode=%s", gr.name, mode), func(b *testing.B) {
				e, inf := fixedInfra(b, gr.g, gr.parts, 11, mode, 1)
				vals := randomVals(gr.g.N(), rand.New(rand.NewSource(3)))
				ops := []struct {
					name string
					run  func() error
				}{
					{"verify", func() error { _, err := e.verifyParts(inf, nil); return err }},
					{"solve", func() error { _, err := e.SolveWithInfra(inf, vals, congest.SumPair); return err }},
				}
				for _, op := range ops {
					b.Run("op="+op.name, func(b *testing.B) {
						// One untimed run sizes the Engine's recycled router
						// state, so allocs/op is the steady state.
						if err := op.run(); err != nil {
							b.Fatal(err)
						}
						e.Net.ResetMetrics()
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if err := op.run(); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			})
		}
	}
}

// BenchmarkBuildInfra times one BuildInfra per iteration (coverage BFS,
// sub-part division, shortcut construction with its block setup and
// Algorithm 2 verification) on BenchmarkRouter's power-law instance, after
// one untimed build. `make bench-allocs-check` pins allocs/op: the
// shortcut's per-node state is one sorted record slice per node, where
// per-node maps would add about 3n allocations per build.
func BenchmarkBuildInfra(b *testing.B) {
	g, parts := powerLaw3000()
	for _, mode := range []Mode{Deterministic, Randomized} {
		b.Run(fmt.Sprintf("graph=powerlaw3000/mode=%s", mode), func(b *testing.B) {
			e, inf := fixedInfra(b, g, parts, 11, mode, 1)
			e.Net.ResetMetrics()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.BuildInfra(inf.In); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// powerLaw3000 is the end-to-end benchmark's pa-powerlaw instance shape: a
// 3000-node power-law graph in DFS-segment parts six eccentricities long.
func powerLaw3000() (*graph.Graph, []int) {
	g := graph.PowerLaw(3000, 4, 2.5, rand.New(rand.NewSource(5)))
	return g, graph.DeepPartition(g, 6*g.Eccentricity(0))
}
