package tree

import (
	"fmt"
	"math/rand"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
)

// TestHopAndFlood checks the two one-phase shapes against offline answers
// at one and four engine workers: Flood with no port mask and no relax
// elects the global minimum ID; Flood over a same-part port mask elects
// each part's minimum ID; Flood with an edge-weight relax from one source
// is Bellman-Ford and matches Dijkstra; and a Hop whose recv answers every
// question delivers each answer exactly once, on the port that asked.
func TestHopAndFlood(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomizeWeights(graph.PowerLaw(400, 4, 2.5, rng), 50, rng)
	n := g.N()
	csr := g.CSR()
	row := func(a []bool, v int) []bool { return a[csr.RowStart[v]:csr.RowStart[v+1]] }
	parts := graph.RandomConnectedPartition(g, 12, rng)
	same := make([]bool, len(csr.PortTo))
	for v := 0; v < n; v++ {
		g.ForPorts(v, func(q, u, _ int) bool {
			row(same, v)[q] = parts[u] == parts[v]
			return true
		})
	}
	const src = 5
	dijkstra := g.Dijkstra(src)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			net := congest.NewNetworkWorkers(g, 3, workers)
			ids := func() []int64 {
				val := make([]int64, n)
				for v := range val {
					val[v] = net.ID(v)
				}
				return val
			}

			global := ids()
			if err := Flood(net, "test/flood-global", global, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			partMin := make(map[int]int64)
			minID := net.ID(0)
			for v := 0; v < n; v++ {
				minID = min(minID, net.ID(v))
				if m, ok := partMin[parts[v]]; !ok || net.ID(v) < m {
					partMin[parts[v]] = net.ID(v)
				}
			}
			local := ids()
			err := Flood(net, "test/flood-parts", local, nil, func(v int) []bool { return row(same, v) }, nil)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < n; v++ {
				if global[v] != minID {
					t.Fatalf("node %d: global flood %d, want min ID %d", v, global[v], minID)
				}
				if local[v] != partMin[parts[v]] {
					t.Fatalf("node %d: part flood %d, want part %d's min ID %d", v, local[v], parts[v], partMin[parts[v]])
				}
			}

			dist := make([]int64, n)
			for v := range dist {
				dist[v] = congest.PosInf
			}
			dist[src] = 0
			err = Flood(net, "test/flood-sssp", dist, func(v int) bool { return v == src }, nil,
				func(v, port int, a int64) int64 { return a + int64(g.EdgeWeight(v, port)) })
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < n; v++ {
				if dist[v] != dijkstra[v] {
					t.Fatalf("node %d: relaxation flood %d, Dijkstra %d", v, dist[v], dijkstra[v])
				}
			}

			// Every third node asks on every port; the neighbor answers with
			// its own ID. answers counts, per half-edge, the answers heard.
			const ask, answer = 1, 2
			answers := make([]int, len(csr.PortTo))
			asked := 0
			for v := 0; v < n; v += 3 {
				asked += g.Degree(v)
			}
			net.ResetMetrics()
			err = Hop(net, "test/hop",
				func(ctx *congest.Ctx, v int) {
					if v%3 == 0 {
						ctx.Broadcast(congest.Message{Kind: ask})
					}
				},
				func(ctx *congest.Ctx, v int, in congest.Incoming) {
					switch in.Msg.Kind {
					case ask:
						ctx.Send(in.Port, congest.Message{Kind: answer, A: ctx.ID()})
					case answer:
						if in.Msg.A != net.ID(g.Neighbor(v, in.Port)) {
							t.Errorf("node %d port %d: answer from ID %d", v, in.Port, in.Msg.A)
						}
						answers[csr.RowStart[v]+int32(in.Port)]++
					}
				})
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < n; v++ {
				want := 0
				if v%3 == 0 {
					want = 1
				}
				for q := range g.Degree(v) {
					if got := answers[csr.RowStart[v]+int32(q)]; got != want {
						t.Fatalf("node %d port %d: %d answers, want %d", v, q, got, want)
					}
				}
			}
			if want := (congest.Metrics{Rounds: 3, Messages: int64(2 * asked)}); net.Total() != want {
				t.Fatalf("hop cost %+v, want %+v", net.Total(), want)
			}
		})
	}
}
