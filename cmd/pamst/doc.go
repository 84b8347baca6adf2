// Command pamst runs the distributed Borůvka-over-PA MST (Corollary 1.3)
// on a graph.Family instance, re-weighted uniformly in [1, 1000], and
// reports costs and correctness against Kruskal.
//
// Usage:
//
//	pamst -family grid -n 441 -seed 7 -mode rand
package main
