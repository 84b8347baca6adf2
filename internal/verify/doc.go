// Package verify implements Corollary A.1: the graph verification problems
// of Das Sarma et al. [5] in Õ(D+√n) rounds and Õ(m) messages, built on
// Thurimella-style connected-component labeling [41] cast as Part-Wise
// Aggregation — each component of the query subgraph H elects a leader
// (Algorithm 9's coarsening) and the leader's ID becomes every member's
// label.
//
// Verifiers provided: connectivity, spanning tree (connected + exactly n-1
// edges), s-t connectivity, cut verification (does deleting the edge set
// disconnect G), and bipartiteness of H. Global counts and verdicts travel
// on the engine's BFS tree (convergecast + broadcast), costing O(D) rounds
// and O(n) messages per decision.
//
// Bipartiteness levels: the paper (footnote 4) obtains per-component rooted
// spanning trees with levels from the PA machinery itself; here levels come
// from an explicit parity flood along H inside each component, which costs
// O(component diameter) extra rounds — a documented simplification
// (ARCHITECTURE.md, "Substitutions").
package verify
