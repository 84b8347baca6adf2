package congest

import (
	"fmt"
	"testing"

	"shortcutpa/internal/graph"
)

// BenchmarkEngineSparse measures the activity-proportional round loop on
// frontier-shaped workloads: protocols where almost every node is asleep
// almost every round, so a round's true work is O(awake + delivered) and
// the pre-sparse O(n + slots) scan was pure overhead. Each family runs in
// both execution modes — mode=sparse is the default engine, mode=dense
// forces SetSparseRounds(false), the full-range scan — so the reported
// ns/round ratio IS the sparse-execution win at that awake fraction.
// Outputs are bit-identical across modes and worker counts (the
// equivalence harness proves it); this benchmark only times them.
//
// The three families bracket the sparse regime:
//
//	walk   a single token hopping down a 100k-node path: one node awake
//	       per round, the engine's sparsest possible schedule
//	wave   a BFS wavefront crossing a 2x50k ladder: a constant-width
//	       frontier (~3 nodes) advancing through a huge sleeping graph
//	retry  16 always-active retriers on a 10k torus broadcasting every
//	       32nd round: the CoreFast faulty-tail shape — a tiny persistent
//	       active set plus periodic wake bursts
//
// `make bench` snapshots these rows into BENCH_<pr>.json, bench-compare's
// sparse-rounds stanza prints the sparse/dense ratios, and
// bench-allocs-check pins the steady-state rows allocation-free (the
// per-op ceilings are whole-phase costs; thousands of rounds per op make
// the per-round allocation budget zero).
func BenchmarkEngineSparse(b *testing.B) {
	// hops bounds every family's activity so one benchmark iteration is one
	// phase of ~hops rounds regardless of graph size.
	const hops = 2048
	families := []struct {
		name string
		g    *graph.Graph
		proc func(n int) NodeProcFunc
	}{
		{
			name: "walk",
			g:    graph.Path(100_000),
			proc: func(n int) NodeProcFunc {
				return func(ctx *Ctx, v int) bool {
					got := false
					ctx.ForRecv(func(_ int, in Incoming) { got = true })
					if (ctx.Round() == 0 && v == 0) || got {
						if v < n-1 && ctx.Round() < hops {
							ctx.Send(ctx.Degree()-1, Message{A: int64(v)})
						}
					}
					return false
				}
			},
		},
		{
			name: "wave",
			g:    graph.Ladder(50_000),
			proc: func(n int) NodeProcFunc {
				dist := make([]int64, n)
				return func(ctx *Ctx, v int) bool {
					if ctx.Round() == 0 {
						dist[v] = -1
						if v == 0 {
							dist[v] = 0
							ctx.Broadcast(Message{A: 0})
						}
						return false
					}
					got := false
					ctx.ForRecv(func(_ int, in Incoming) { got = true })
					if dist[v] < 0 && got {
						dist[v] = ctx.Round()
						if ctx.Round() < hops {
							ctx.Broadcast(Message{A: dist[v]})
						}
					}
					return false
				}
			},
		},
		{
			name: "retry",
			g:    graph.Torus(100, 100),
			proc: func(n int) NodeProcFunc {
				stride := n / 16
				return func(ctx *Ctx, v int) bool {
					if v%stride != 0 || ctx.Round() >= hops {
						return false
					}
					if ctx.Round()%32 == 0 {
						ctx.Broadcast(Message{A: int64(v)})
					}
					return true
				}
			},
		},
	}
	for _, fam := range families {
		for _, mode := range []string{"sparse", "dense"} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("family=%s/mode=%s/workers=%d", fam.name, mode, workers)
				b.Run(name, func(b *testing.B) {
					net := NewNetworkWorkers(fam.g, 42, workers)
					net.SetSparseRounds(mode == "sparse")
					n := fam.g.N()
					proc := fam.proc(n)
					if _, err := net.RunNodes("warmup", proc, hops+16); err != nil {
						b.Fatal(err)
					}
					net.ResetMetrics()
					var rounds, stepped int64
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						cost, err := net.RunNodes("bench", proc, hops+16)
						if err != nil {
							b.Fatal(err)
						}
						rounds += cost.Rounds
						st, _ := net.ActivityStats()
						stepped += st
						net.ResetMetrics()
					}
					b.StopTimer()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(rounds, 1)), "ns/round")
					b.ReportMetric(100*float64(stepped)/float64(max(rounds*int64(n), 1)), "awake%")
				})
			}
		}
	}
}
