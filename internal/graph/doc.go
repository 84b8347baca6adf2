// Package graph provides the static undirected graphs on which the CONGEST
// simulator runs, generators for every graph family the paper's results are
// parameterized by, and sequential reference algorithms used as test oracles.
//
// Nodes are indexed 0..N-1. Each node's incident edges are numbered by local
// "ports" 0..deg-1, matching the KT0 CONGEST model in which a node initially
// knows only its own ID and its ports. Edge weights are positive integers in
// [1, poly(n)], as in the paper.
//
// Adjacency is stored in compressed sparse row (CSR) form: flat int32
// arrays indexed by global half-edge number rowStart[v]+p. Ports of one node
// are contiguous, so port iteration is a linear scan and the CONGEST engine
// can address its per-edge message slots by the same offsets (see
// internal/congest). The port-based accessors are thin views over the CSR
// arrays; hot loops should use ForPorts or CSR() rather than calling
// Neighbor/EdgeIndex per port, and edge iteration should use ForEdges
// rather than the copying Edges.
//
// Graphs are constructed through Builder (NewBuilder / AddEdge / Finish), a
// streaming O(n + m) path with no hash maps: degrees are counted as edges
// arrive, validation is inline, duplicate detection is a per-row scan of
// the filled CSR, and Finish adopts the streamed edge list without copying.
// Every generator streams into a Builder sized to its exact edge count;
// New/MustNew remain as thin adapters for callers holding an edge slice.
//
// The generators span both degree regimes the engine is measured on:
// uniform families (Path, Cycle, Grid, Torus, RandomConnected) and skewed
// ones, where few nodes carry a constant fraction of all edges (Star,
// GridStar, and the heavy-tailed PowerLaw and PrefAttach in powerlaw.go).
// Family (family.go) is the one table of named families: it maps a family
// name and a target node count to an instance, pure in (name, n, seed), and
// every CLI, the job mode and the scale sweep build through it.
// External graphs load through LoadEdgeList (load.go), which accepts
// SNAP-style and DIMACS-style edge lists, remaps sparse IDs densely, and
// streams through the same Builder path as the generators.
package graph
