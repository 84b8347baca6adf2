// Package part represents Part-Wise Aggregation partitions as CONGEST-local
// knowledge and provides the intra-part protocols the paper's algorithms
// build on: restricted flood-min leader election and radius-capped
// intra-part BFS with coverage detection. The BFS grows its trees with
// tree.Forest.Grow, and BFS embeds the tree.Forest it grew.
//
// Per Definition 1.1, a node knows only which of its ports stay inside its
// part; per Section 4, the paper additionally assumes every node knows its
// part leader's ID (an assumption removable via Algorithm 9, implemented in
// internal/core). Part IDs are leader IDs.
package part
