package core

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"shortcutpa/internal/congest"
)

// routerFootprint is the recycled router state's size in bytes: every
// array the routerRun owns, by capacity times element size, plus the
// routerRun itself. The graph's CSR rows it reads are the graph's, not
// counted.
func routerFootprint(r *routerRun) int64 {
	size := int64(unsafe.Sizeof(*r))
	size += int64(cap(r.nodes)) * int64(unsafe.Sizeof(routerNode{}))
	size += int64(cap(r.last)) * int64(unsafe.Sizeof(int32(0)))
	for v := range r.nodes {
		p := &r.nodes[v]
		size += int64(cap(p.parts)) * int64(unsafe.Sizeof(partState{}))
		size += int64(cap(p.pool)) * int64(unsafe.Sizeof(queued{}))
		size += int64(cap(p.links)) * int64(unsafe.Sizeof(portLink{}))
		size += int64(cap(p.busy)) * int64(unsafe.Sizeof(int32(0)))
	}
	return size
}

// TestRouterFootprint pins an upper bound on the router's recycled state
// after BuildInfra (its Algorithm 2 verifications) and one aggregation on
// the end-to-end benchmark's pa-powerlaw instance shape. The bound is the
// flat layout's size (about 1.25 MB randomized) with headroom: per-port
// slice headers, per-record slices or stored per-node port lists growing
// back would cross it.
func TestRouterFootprint(t *testing.T) {
	const bound = 1_500_000
	g, parts := powerLaw3000()
	for _, mode := range []Mode{Randomized, Deterministic} {
		t.Run(fmt.Sprintf("mode=%s", mode), func(t *testing.T) {
			e, inf := fixedInfra(t, g, parts, 11, mode, 1)
			if _, err := e.SolveWithInfra(inf, randomVals(g.N(), rand.New(rand.NewSource(3))), congest.SumPair); err != nil {
				t.Fatal(err)
			}
			got := routerFootprint(&e.router)
			t.Logf("router footprint %d B (%.0f B per node, %.1f B per slot)", got,
				float64(got)/float64(g.N()), float64(got)/float64(2*g.M()))
			if got > bound {
				t.Errorf("router footprint %d B, bound %d B", got, bound)
			}
		})
	}
}
