// Package tree implements the rooted-spanning-tree substrate the paper
// assumes (Section 2.2): leader election, BFS-tree construction, broadcast
// and convergecast along the tree, subtree sizes, and the heavy-path
// decomposition of Sleator–Tarjan [39] used by the deterministic shortcut
// construction (Section 6.3).
//
// Global is the one global aggregate, a convergecast followed by a
// broadcast of the root's value: engine setup (internal/core), SSSP's
// average weight and termination test (internal/sssp) and the
// verification predicates (internal/verify) use it.
//
// All of these run on the congest simulator as true message-passing
// protocols; the structs returned hold only information that individual
// nodes learned locally (each slice entry is the knowledge of that node).
package tree
