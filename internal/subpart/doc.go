// Package subpart implements the paper's sub-part divisions (Definition 4.1)
// and the machinery for computing them: the randomized sampling division
// (Algorithm 3), star joinings (Definition 6.1 / Algorithm 5, randomized and
// deterministic via Cole–Vishkin), and the deterministic division
// (Algorithm 6).
//
// A sub-part division refines each part into Õ(|P_i|/D) sub-parts, each with
// a spanning tree of diameter O(D) rooted at a designated representative.
// Only representatives may inject messages into shortcuts, which is the
// paper's key device for message-optimality (Section 3.2).
//
// Every division starts from one state: a part the radius-D BFS covered
// is one sub-part on its BFS tree, rooted at the leader, and every node of
// an uncovered part is its own representative. SingletonDivision stops
// there; it is the Section 3.1 strawman, in which every node injects.
// RandomDivision's sampling wave overwrites the start state, and
// DeterministicDivision merges from it with star joinings, which need only
// each sub-part's leader.
//
// A Division embeds the tree.Forest of its sub-part trees. Algorithm 3's
// sampling wave is tree.Forest.Grow carrying representative IDs,
// Algorithm 6 aggregates within its sub-part trees with tree.ForestAgg,
// and its final depths are a tree.Forest.Down from the representatives.
// AdoptAcross is the one joiner adoption that completes a star joining's
// merges, used by Algorithm 6 and by core's Borůvka loop; each caller
// names the phase it is logged under and keeps one reply buffer across
// its merge iterations.
package subpart
