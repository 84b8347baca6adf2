// Package tree implements the rooted-spanning-tree substrate the paper
// assumes (Section 2.2): leader election, BFS-tree construction, the
// rooted-forest walks, and the heavy-path
// decomposition of Sleator–Tarjan [39] used by the deterministic shortcut
// construction (Section 6.3).
//
// Forest is the one rooted-forest format of the protocol stack
// (ParentPort, ChildPorts, Depth): BFSTree, part.BFS and subpart.Division
// embed it. Its three walks are the stack's only forest protocols of their
// kind: Grow, a radius-capped multi-source BFS inside a port mask with
// CHILD replies (the part BFS and Algorithm 3's sampling wave); Up, a
// convergecast whose per-child hook returns the value to fold (subtree
// sizes, light levels, chain indices); and Down, a push from chosen roots
// whose hook computes each hop's message (the broadcast, the heavy-path
// info, the sub-part depths). ForestAgg is the convergecast-then-broadcast
// in one phase that Algorithm 6 and core's block push aggregate with.
// Every walk runs under the caller's phase name.
//
// Flood (the min-relaxation flood of tree/elect, part/elect and
// sssp/bellman-ford) and Hop (a round-0 send whose deliveries may be
// answered on their arrival port) are the stack's two non-forest shapes.
//
// Global is the one global aggregate, an Up followed by a Down of the
// root's value: engine setup (internal/core), SSSP's average weight and
// termination test (internal/sssp) and the verification predicates
// (internal/verify) use it.
//
// All of these run on the congest simulator as true message-passing
// protocols; the structs returned hold only information that individual
// nodes learned locally (each slice entry is the knowledge of that node).
package tree
