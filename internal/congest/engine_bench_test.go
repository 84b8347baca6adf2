package congest

import (
	"fmt"
	"math/rand"
	"testing"

	"shortcutpa/internal/graph"
)

// Engine benchmarks: steady-state round-loop throughput of the simulator
// across graph families (degree structure stresses different parts of the
// edge-slot delivery path) and worker counts. The network and proc are
// built once, outside the timed loop, so the numbers measure the engine —
// phase setup, stepping, Send/ForRecv delivery — not NewNetwork or closure
// construction. `make bench` snapshots these into BENCH_<pr>.json.

// benchFamilies are the n≈10k instances BenchmarkEngine runs on.
func benchFamilies() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		// n = 10,000, uniform degree 4: the headline regression instance.
		{"torus", graph.Torus(100, 100)},
		// Max-degree hub: one node owns half of all edge slots.
		{"star", graph.Star(10000)},
		// Irregular sparse degrees, avg ~3.
		{"random", graph.RandomConnected(10000, 3.0/10000.0, rand.New(rand.NewSource(1)))},
		// Heavy-tailed degrees (alpha=2.5): many small hubs rather than one
		// giant one — the regime edge-balanced shard boundaries target.
		{"powerlaw", graph.PowerLaw(10000, 4, 2.5, rand.New(rand.NewSource(7)))},
	}
}

// BenchmarkEngine runs a message-heavy broadcast-aggregation storm (every
// scheduled node broadcasts its running min-ID each round) for a fixed
// number of rounds per iteration. Outputs are bit-identical across all
// worker counts; workers>1 measures parallel speedup (or, on one core,
// coordination overhead). The storm is one shared NodeProc reading with
// ForRecv (benchProc), the form every protocol package runs on.
func BenchmarkEngine(b *testing.B) {
	const rounds = 20
	for _, fam := range benchFamilies() {
		for _, workers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("family=%s/workers=%d", fam.name, workers), func(b *testing.B) {
				net := NewNetworkWorkers(fam.g, 42, workers)
				proc := benchProc(net, rounds)
				// Warm up the engine's network-lifetime buffers so the loop
				// measures steady-state rounds, not one-time setup.
				if _, err := net.RunNodes("warmup", proc, rounds+8); err != nil {
					b.Fatal(err)
				}
				net.ResetMetrics()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := net.RunNodes("bench", proc, rounds+8); err != nil {
						b.Fatal(err)
					}
					net.ResetMetrics()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/round")
				// Resident slot-array bytes per edge slot (MemFootprint):
				// the 16 B SoA delivery core of stamps and send-log refs.
				b.ReportMetric(net.MemFootprint().BytesPerSlot(), "bytes/slot")
				if workers > 1 {
					// Shard imbalance under the step-wave boundaries this run
					// actually used: max/mean incident-edge mass per worker.
					rs := fam.g.CSR().RowStart
					bal := MeasureShards(rs, EdgeBalancedBounds(rs, workers, 1))
					b.ReportMetric(bal.Ratio(), "shard-max/mean")
				}
			})
		}
	}
}

// BenchmarkEngineSetup measures PHASE SETUP — the protocol-side cost
// BenchmarkEngine deliberately excludes: building one phase's proc state
// and filling a per-port flag table, then running a short phase
// (proc=shared: one shared NodeProc over a flat flag array indexed by CSR
// port offset). The flag array is allocated once per row, outside the
// timed loop, and cleared then refilled every phase, as a recycled buffer
// would be.
//
// The row is pinned at 2 allocs/op, both owned by this benchmark's
// workload, not the engine: the NodeProcFunc closure (fresh per phase —
// building one proc value per phase is the idiom being measured) and the
// shared `got` counter, which escapes into it. The engine itself starts a
// phase allocation-free: the runState is recycled (Network.rs) and record
// appends into retained capacity (ResetMetrics). make bench-allocs-check
// enforces the pin.
func BenchmarkEngineSetup(b *testing.B) {
	for _, fam := range benchFamilies() {
		g := fam.g
		b.Run(fmt.Sprintf("family=%s/proc=shared", fam.name), func(b *testing.B) {
			// Pinned to the sequential engine: the shared `got` counter is
			// cross-node mutable state, which the locality rule forbids on
			// the parallel engine — and this benchmark must measure the same
			// engine regardless of the CONGEST_WORKERS default.
			net := NewNetworkWorkers(g, 42, 1)
			csr := g.CSR()
			flat := make([]bool, len(csr.PortTo))
			// One warmup phase so the engine's network-lifetime buffers
			// exist before timing starts.
			setupPhase(b, net, csr, flat)
			net.ResetMetrics()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				setupPhase(b, net, csr, flat)
				net.ResetMetrics()
			}
		})
	}
}

// setupPhase clears and fills the per-port flags, builds one phase's proc
// state and runs it: every node broadcasts once, receivers count
// deliveries on flagged ports.
func setupPhase(b *testing.B, net *Network, csr graph.CSR, flat []bool) {
	b.Helper()
	got := 0
	clear(flat)
	for i := range flat {
		flat[i] = i%2 == 0
	}
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		if ctx.Round() == 0 {
			ctx.Broadcast(Message{A: int64(v)})
			return false
		}
		ctx.ForRecv(func(in Incoming) {
			if flat[csr.RowStart[v]+int32(in.Port)] {
				got++
			}
		})
		return false
	})
	if _, err := net.RunNodes("setup", proc, 8); err != nil {
		b.Fatal(err)
	}
	if got < 0 {
		b.Fatal("impossible")
	}
}
