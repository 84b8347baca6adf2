package congest

import (
	"math/rand"
	"testing"

	"shortcutpa/internal/graph"
)

// Construction-path tests: the sharded slot-geometry fill must be
// slot-for-slot identical to the sequential reference.

// geometryGraphs are the topologies the fill tests run on. The torus
// crosses the minParallelFillNodes gate so the parallel fill really runs;
// the star is the degree-skew worst case (one receiver owns half of all
// slots, so one shard's counters see almost all of one column); the random
// graph has irregular rows.
func geometryGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	return map[string]*graph.Graph{
		"torus-150x150": graph.Torus(150, 150),
		"star-20k":      graph.Star(20000),
		"random-17k":    graph.RandomConnected(17000, 3.0/17000.0, rand.New(rand.NewSource(7))),
	}
}

func TestParallelGeometryFillMatchesSequential(t *testing.T) {
	for name, g := range geometryGraphs(t) {
		t.Run(name, func(t *testing.T) {
			if g.N() < minParallelFillNodes {
				t.Fatalf("fixture below the parallel-fill gate: n=%d", g.N())
			}
			seq := NewNetworkWorkers(g, 42, 1)
			for _, workers := range []int{2, 3, 8} {
				par := NewNetworkWorkers(g, 42, workers)
				for s := range seq.destSlot {
					if seq.destSlot[s] != par.destSlot[s] {
						t.Fatalf("workers=%d: destSlot[%d] = %d, want %d", workers, s, par.destSlot[s], seq.destSlot[s])
					}
					if seq.slotPort[s] != par.slotPort[s] {
						t.Fatalf("workers=%d: slotPort[%d] = %d, want %d", workers, s, par.slotPort[s], seq.slotPort[s])
					}
				}
			}
		})
	}
}

// TestParallelGeometryFillBelowGate pins the gate itself: a small network
// built with many workers must still use the (sequential) fill and still be
// correct — the gate is a perf heuristic, not a semantic switch.
func TestParallelGeometryFillBelowGate(t *testing.T) {
	g := graph.Torus(10, 10)
	seq := NewNetworkWorkers(g, 42, 1)
	par := NewNetworkWorkers(g, 42, 8)
	for s := range seq.destSlot {
		if seq.destSlot[s] != par.destSlot[s] || seq.slotPort[s] != par.slotPort[s] {
			t.Fatalf("slot geometry at %d differs below the gate", s)
		}
	}
}
