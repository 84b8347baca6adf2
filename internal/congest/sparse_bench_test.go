package congest

import (
	"fmt"
	"testing"
	"time"

	"shortcutpa/internal/graph"
)

// BenchmarkEngineSparse measures the round loop on frontier-shaped
// workloads: protocols where almost every node is asleep almost every
// round, so a round's true work is O(awake + delivered) and everything else
// is the scheduler's overhead — here, the ceil(n/64)-word bitset drain.
// Outputs are bit-identical across worker counts (the equivalence harness
// proves it); this benchmark only times them.
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
//	sleep  16 nodes of a 10k torus sleeping ~130 rounds at a time with
//	       Ctx.WakeAt while the rest park: almost every round steps no
//	       node, so the row times an idle round and the wake-up heap
//
// A phase's round 0 steps every node, so on the 100k-node walk and wave
// graphs that one dense round would dominate the phase's time. Their
// ns/round rows time the sparse rounds only: each iteration also times,
// with the benchmark timer stopped, a phase of one idle round on the same
// network, and ns/round is (elapsed - idle) / (rounds - phases). awake%
// still counts every round of the phase.
//
// `make bench` snapshots these rows into BENCH_<pr>.json, bench-compare's
// sparse-rounds stanza prints them next to the previous snapshot's, and
// bench-allocs-check pins the steady-state rows allocation-free (the
// per-op ceilings are whole-phase costs; thousands of rounds per op make
// the per-round allocation budget zero).
func BenchmarkEngineSparse(b *testing.B) {
	// hops bounds every family's activity so one benchmark iteration is one
	// phase of ~hops rounds regardless of graph size.
	const hops = 2048
	families := []struct {
		name   string
		g      *graph.Graph
		sparse bool // ns/round leaves out round 0
		proc   func(n int) NodeProcFunc
	}{
		{
			name:   "walk",
			g:      graph.Path(100_000),
			sparse: true,
			proc: func(n int) NodeProcFunc {
				return func(ctx *Ctx, v int) bool {
					got := false
					ctx.ForRecv(func(in Incoming) { got = true })
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
			name:   "wave",
			g:      graph.Ladder(50_000),
			sparse: true,
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
					ctx.ForRecv(func(in Incoming) { got = true })
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
			name: "sleep",
			g:    graph.Torus(100, 100),
			proc: func(n int) NodeProcFunc {
				stride := n / 16
				return func(ctx *Ctx, v int) bool {
					if v%stride == 0 {
						if next := ctx.Round() + 128 + int64(v/stride); next < hops {
							ctx.WakeAt(next)
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
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("family=%s/workers=%d", fam.name, workers)
			b.Run(name, func(b *testing.B) {
				net := NewNetworkWorkers(fam.g, 42, workers)
				n := fam.g.N()
				proc := fam.proc(n)
				if _, err := net.RunNodes("warmup", proc, hops+16); err != nil {
					b.Fatal(err)
				}
				net.ResetMetrics()
				idle := NodeProcFunc(func(*Ctx, int) bool { return false })
				var rounds, stepped, dense int64
				var round0 time.Duration
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
					if fam.sparse {
						b.StopTimer()
						t0 := time.Now()
						if _, err := net.RunNodes("round0", idle, 1); err != nil {
							b.Fatal(err)
						}
						round0 += time.Since(t0)
						dense++
						net.ResetMetrics()
						b.StartTimer()
					}
				}
				b.StopTimer()
				ns := b.Elapsed() - round0
				b.ReportMetric(float64(ns.Nanoseconds())/float64(max(rounds-dense, 1)), "ns/round")
				b.ReportMetric(100*float64(stepped)/float64(max(rounds*int64(n), 1)), "awake%")
			})
		}
	}
}
