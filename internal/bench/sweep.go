package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
)

// sweep.go is the engine scale sweep (cmd/pabench -sweep): tori from n=10^4
// up to n=10^6 plus the skewed families (star, power-law) at the same
// scales, each running a fixed broadcast-aggregation storm through the
// shared-proc phase driver. Unlike the paper experiments, this measures
// the simulator itself — setup wall time, steady-state ns/round and
// ns/message, resident heap, and the shard-balance metric — to locate the
// next engine bottleneck as n grows (ROADMAP "Many-core scale-out"). The
// int32 CSR guard bounds how far the sweep could ever be pushed
// (2m <= 2^31); at n=10^6 a torus uses 4x10^6 of those half-edge slots.

// stormRounds is the number of broadcast rounds each sweep instance runs:
// every node broadcasts its running min-ID each round, so messages per
// round are exactly 2m and the instance quiesces one round after the last
// broadcast.
const stormRounds = 10

// balanceWorkers is the worker count the sweep's shard-balance columns are
// computed at. Fixed (rather than following -workers) so the imbalance
// number in a BENCH snapshot is comparable across hosts and flag settings;
// it matches the acceptance setting of the edge-balanced sharding work.
const balanceWorkers = 4

// sweepSizes are the target node counts each family is swept at.
var sweepSizes = []int{10_000, 62_500, 250_000, 1_000_000}

// sweepFamilies are the sweep's topology builders, uniform-degree first.
// The torus ladder is the historical scaling series; star and power-law
// are the skew series — the families where node-count sharding serializes
// a worker on the hub and edge-balanced boundaries must not.
var sweepFamilies = []struct {
	name  string
	build func(n int, seed int64) *graph.Graph
}{
	{"torus", func(n int, _ int64) *graph.Graph {
		side := squareSide(n)
		return graph.Torus(side, side)
	}},
	{"star", func(n int, _ int64) *graph.Graph {
		return graph.Star(n)
	}},
	{"powerlaw", func(n int, seed int64) *graph.Graph {
		return graph.PowerLaw(n, 4, 2.5, rand.New(rand.NewSource(seed)))
	}},
}

// ScaleSweep runs the sweep on all families with n <= maxN and returns the
// measurement table. Wall-clock numbers depend on the host; the sweep is a
// diagnostic, not a regression gate (BENCH_<pr>.json plays that role).
func ScaleSweep(seed int64, maxN int) (*Table, error) {
	t := &Table{
		ID:    "SWEEP",
		Title: fmt.Sprintf("engine scale sweep: broadcast storm, %d rounds, workers=%d", stormRounds, max(workers, 1)),
		Headers: []string{"graph", "n", "2m", "build ms", "net ms", "warm ms", "storm ms",
			"ns/round", "ns/msg", "msgs", "awake%", "heap MB", "B/slot",
			fmt.Sprintf("bal@%d", balanceWorkers)},
		Notes: []string{
			"setup is split by stage: build = graph construction, net = NewNetwork (IDs + slot geometry), warm = first-run engine-buffer allocation; storm: the timed phase only",
			"heap: HeapAlloc after a forced GC with the network still live (graph + engine footprint)",
			"B/slot: Network.MemFootprint().BytesPerSlot() — resident slot-array bytes per edge slot (72: two 32 B message buffers plus two int32 stamp buffers)",
			"awake%: mean stepped nodes per round / n (Network.ActivityStats) — the storm steps every node every round, so ~100 here; frontier-shaped protocols run far lower, and the bitset drain reads only the words that hold an awake node",
			fmt.Sprintf("bal@%d: max/mean incident-edge mass per shard under the engine's edge-balanced boundaries at %d workers", balanceWorkers, balanceWorkers),
			"a trailing ! on bal marks a shard pinned at the indivisible floor: one node heavier than a whole fair share (a star hub); no node-granular sharding can go lower",
		},
	}
	ran := 0
	for _, fam := range sweepFamilies {
		for _, n := range sweepSizes {
			if n > maxN {
				break
			}
			buildStart := time.Now()
			g := fam.build(n, seed)
			build := time.Since(buildStart)
			row, err := sweepInstance(seed, fam.name, g, build)
			if err != nil {
				return nil, fmt.Errorf("sweep %s n=%d: %w", fam.name, n, err)
			}
			t.Rows = append(t.Rows, row)
			ran++
		}
	}
	if ran == 0 {
		return nil, fmt.Errorf("sweep: maxN %d below the smallest instance (10000)", maxN)
	}
	return t, nil
}

// balanceCell formats a ShardMass as "1.02x", flagging a max shard pinned
// at the indivisible single-node floor with a trailing '!'.
func balanceCell(s congest.ShardMass) string {
	cell := fmt.Sprintf("%.2fx", s.Ratio())
	if s.Max == s.MaxNode && float64(s.Max) > 1.25*s.Mean {
		cell += "!"
	}
	return cell
}

// sweepInstance builds one network and times the storm phase on it. The
// three construction stages are timed separately so a setup regression is
// attributable: graph build (generator + CSR), NewNetwork (IDs + slot
// geometry), and the first-run engine-buffer warmup.
func sweepInstance(seed int64, label string, g *graph.Graph, build time.Duration) ([]string, error) {
	netStart := time.Now()
	net := newNetwork(g, seed)
	netElapsed := time.Since(netStart)

	rs := g.CSR().RowStart
	balanced := congest.MeasureShards(rs, congest.EdgeBalancedBounds(rs, balanceWorkers, 0))

	warmStart := time.Now()
	n := g.N()
	minID := make([]int64, n)
	for v := 0; v < n; v++ {
		minID[v] = net.ID(v)
	}
	storm := congest.NodeProcFunc(func(ctx *congest.Ctx, v int) bool {
		ctx.ForRecv(func(_ int, in congest.Incoming) {
			if in.Msg.A < minID[v] {
				minID[v] = in.Msg.A
			}
		})
		if ctx.Round() < stormRounds {
			ctx.Broadcast(congest.Message{A: minID[v]})
			return true
		}
		return false
	})
	// One warmup round so the engine's network-lifetime buffers exist before
	// the timed phase (they are allocated on first run).
	if _, err := net.RunNodes("sweep/warmup", congest.NodeProcFunc(func(ctx *congest.Ctx, v int) bool {
		return false
	}), 4); err != nil {
		return nil, err
	}
	net.ResetMetrics()
	warm := time.Since(warmStart)

	stormStart := time.Now()
	cost, err := net.RunNodes("sweep/storm", storm, int64(stormRounds)+4)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(stormStart)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	nsPerRound := float64(elapsed.Nanoseconds()) / float64(max(cost.Rounds, 1))
	nsPerMsg := float64(elapsed.Nanoseconds()) / float64(max(cost.Messages, 1))
	stepped, _ := net.ActivityStats()
	awake := 100 * float64(stepped) / float64(max(int64(n)*cost.Rounds, 1))
	return []string{
		label,
		itoaInt(n), itoaInt(2 * g.M()),
		itoa(build.Milliseconds()), itoa(netElapsed.Milliseconds()), itoa(warm.Milliseconds()),
		itoa(elapsed.Milliseconds()),
		fmt.Sprintf("%.0f", nsPerRound), fmt.Sprintf("%.1f", nsPerMsg),
		itoa(cost.Messages),
		fmt.Sprintf("%.1f", awake),
		fmt.Sprintf("%.0f", float64(ms.HeapAlloc)/(1<<20)),
		fmt.Sprintf("%.0f", net.MemFootprint().BytesPerSlot()),
		balanceCell(balanced),
	}, nil
}
