package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"shortcutpa/internal/congest"
)

// routerFootprint is the recycled router state's size in bytes: the
// routerRun itself plus every array reachable from it through slices,
// by capacity times element size, wherever they live (its per-node
// records and the Outbox's pools, busy lists and per-port tails). Fields
// named rows are the graph's CSR rows, not counted.
func routerFootprint(r *routerRun) int64 {
	return int64(unsafe.Sizeof(*r)) + arrayBytes(reflect.ValueOf(r).Elem())
}

// arrayBytes sums the backing arrays reachable from x through slices and
// struct fields other than rows; pointers are not followed.
func arrayBytes(x reflect.Value) int64 {
	var size int64
	switch x.Kind() {
	case reflect.Slice:
		size = int64(x.Cap()) * int64(x.Type().Elem().Size())
		for i := range x.Len() {
			size += arrayBytes(x.Index(i))
		}
	case reflect.Struct:
		for i := range x.NumField() {
			if x.Type().Field(i).Name != "rows" {
				size += arrayBytes(x.Field(i))
			}
		}
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
