// Command pagen generates the repository's graph families (graph.Family)
// and prints their structural statistics (n, m, diameter) or an edge list.
//
// Usage:
//
//	pagen -family torus -n 144 -edges
package main
