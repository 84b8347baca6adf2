package graph

import (
	"errors"
	"math"
	"sort"
)

// Weight is an integer edge weight in [1, poly(n)].
type Weight int64

// Edge is an undirected edge between nodes U and V with weight W.
type Edge struct {
	U, V int
	W    Weight
}

// CSR is the flat compressed-sparse-row view of a graph's ported adjacency.
// Node v's ports occupy half-edge indices [RowStart[v], RowStart[v+1]); for
// half-edge h = RowStart[v]+p, PortTo[h] is the neighbor node, PortEdge[h]
// the global edge index, and PortRev[h] the port at the far end (the q with
// Neighbor(PortTo[h], q) == v). The slices are owned by the Graph and must
// not be mutated.
type CSR struct {
	RowStart []int32 // len n+1
	PortTo   []int32 // len 2m
	PortEdge []int32 // len 2m
	PortRev  []int32 // len 2m
}

// Graph is an undirected multigraph-free graph with ported adjacency lists
// in CSR layout. The zero value is an empty graph; use New or a generator.
type Graph struct {
	n     int
	edges []Edge
	csr   CSR
}

// New returns a graph with n nodes and the given undirected edges.
// Self-loops and duplicate edges are rejected. Port numbering follows edge
// order: port p of node v leads across the p-th edge incident to v in the
// input list.
//
// New is a thin adapter over Builder: streaming the caller's slice through
// AddEdge is the defensive copy (the builder owns its storage from the
// start), and validation, degree counting, and the duplicate check are the
// builder's single-pass machinery. Callers that produce edges one at a time
// should use Builder directly and skip the intermediate slice.
func New(n int, edges []Edge) (*Graph, error) {
	// Fail before streaming (and thus before the builder's copy): an
	// over-limit request must not attempt a multi-GB build first. Finish
	// re-checks for direct Builder users, whose stream length is unknown
	// up front.
	if n >= 0 {
		if err := checkCSRIndexRange(int64(n), int64(len(edges))); err != nil {
			return nil, err
		}
	}
	b := NewBuilder(n, len(edges))
	for _, e := range edges {
		b.AddEdge(e.U, e.V, e.W)
	}
	return b.Finish()
}

// checkCSRIndexRange guards the int32 CSR layout: node indices and the 2m
// half-edge offsets must both fit in int32, or every flat array the engine
// layers on top of the CSR (delivery slots, port flags) would silently
// wrap. The guard runs in New before any allocation, so an over-limit
// request fails cleanly rather than attempting a multi-GB build first.
// Factored out of New (with int64 parameters, so the boundary itself is
// expressible on 32-bit platforms too) to be unit-testable without
// materializing a 2^31-edge graph.
func checkCSRIndexRange(n, m int64) error {
	if n > math.MaxInt32 || 2*m > math.MaxInt32 {
		return errors.New("graph: size exceeds int32 CSR index range")
	}
	return nil
}

// buildCSR lays out the ported adjacency of a validated edge list. Filling
// both halves of each edge in one pass makes reverse ports free: when edge i
// lands at port pU of U and pV of V, each half records the other's port.
func buildCSR(n int, edges []Edge, deg []int32) CSR {
	h := 2 * len(edges)
	c := CSR{
		RowStart: make([]int32, n+1),
		PortTo:   make([]int32, h),
		PortEdge: make([]int32, h),
		PortRev:  make([]int32, h),
	}
	for v := 0; v < n; v++ {
		c.RowStart[v+1] = c.RowStart[v] + deg[v]
	}
	cursor := make([]int32, n)
	copy(cursor, c.RowStart[:n])
	for i, e := range edges {
		hu, hv := cursor[e.U], cursor[e.V]
		cursor[e.U]++
		cursor[e.V]++
		c.PortTo[hu] = int32(e.V)
		c.PortTo[hv] = int32(e.U)
		c.PortEdge[hu] = int32(i)
		c.PortEdge[hv] = int32(i)
		c.PortRev[hu] = hv - c.RowStart[e.V]
		c.PortRev[hv] = hu - c.RowStart[e.U]
	}
	return c
}

// MustNew is New but panics on error. Intended for generators and tests whose
// inputs are correct by construction.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// CSR returns the flat adjacency arrays. The slices are owned by the graph:
// read-only, valid for the graph's lifetime.
func (g *Graph) CSR() CSR { return g.csr }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return int(g.csr.RowStart[v+1] - g.csr.RowStart[v]) }

// Neighbor returns the node at the far end of port p of node v.
func (g *Graph) Neighbor(v, p int) int { return int(g.csr.PortTo[g.csr.RowStart[v]+int32(p)]) }

// EdgeIndex returns the global edge index behind port p of node v.
func (g *Graph) EdgeIndex(v, p int) int { return int(g.csr.PortEdge[g.csr.RowStart[v]+int32(p)]) }

// EdgeWeight returns the weight of the edge behind port p of node v.
func (g *Graph) EdgeWeight(v, p int) Weight {
	return g.edges[g.csr.PortEdge[g.csr.RowStart[v]+int32(p)]].W
}

// ForPorts calls fn for each port p of node v in ascending port order, with
// the neighbor node and global edge index behind it, until fn returns false.
// This is the cache-friendly way to scan a node's incident edges: one linear
// pass over the CSR arrays instead of a bounds-checked lookup per accessor.
func (g *Graph) ForPorts(v int, fn func(p, to, edge int) bool) {
	lo, hi := g.csr.RowStart[v], g.csr.RowStart[v+1]
	for h := lo; h < hi; h++ {
		if !fn(int(h-lo), int(g.csr.PortTo[h]), int(g.csr.PortEdge[h])) {
			return
		}
	}
}

// Edge returns the i-th edge.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns a copy of the edge list. Callers that only iterate should
// use ForEdges, which walks the graph-owned list without the O(m) copy.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// ForEdges calls fn for each edge in index order until fn returns false.
// The Edge values are copies; the underlying list is never exposed.
func (g *Graph) ForEdges(fn func(i int, e Edge) bool) {
	for i, e := range g.edges {
		if !fn(i, e) {
			return
		}
	}
}

// PortTo returns the port of v that leads to u, or -1 if u is not adjacent.
func (g *Graph) PortTo(v, u int) int {
	lo, hi := g.csr.RowStart[v], g.csr.RowStart[v+1]
	for h := lo; h < hi; h++ {
		if int(g.csr.PortTo[h]) == u {
			return int(h - lo)
		}
	}
	return -1
}

// ReversePort returns the port at the far end of port p of node v, i.e. the
// port q of u := Neighbor(v,p) with Neighbor(u,q) == v. O(1): reverse ports
// are materialized in the CSR build.
func (g *Graph) ReversePort(v, p int) int { return int(g.csr.PortRev[g.csr.RowStart[v]+int32(p)]) }

// Reweight returns a copy of g with edge i's weight given by w(i). Weights
// must remain positive. Streams straight into a Builder: one exactly-sized
// edge allocation, no intermediate slice for New to re-copy.
func (g *Graph) Reweight(w func(i int, e Edge) Weight) (*Graph, error) {
	b := NewBuilder(g.n, len(g.edges))
	for i, e := range g.edges {
		b.AddEdge(e.U, e.V, w(i, e))
	}
	return b.Finish()
}

// SortedNeighbors returns the neighbor node indices of v in ascending order.
// Intended for tests and offline oracles; protocols must use ports.
func (g *Graph) SortedNeighbors(v int) []int {
	lo, hi := g.csr.RowStart[v], g.csr.RowStart[v+1]
	out := make([]int, 0, hi-lo)
	for h := lo; h < hi; h++ {
		out = append(out, int(g.csr.PortTo[h]))
	}
	sort.Ints(out)
	return out
}
