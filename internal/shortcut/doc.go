// Package shortcut implements tree-restricted low-congestion shortcuts
// (Definitions 2.1-2.3): their node-local representation, the block setup
// pass that distributes block-root information for Lemma 4.2's routing
// discipline, and offline quality measurement (congestion and block
// parameter) used by verification tests and the Table 1 experiments.
//
// A T-restricted shortcut assigns to each part P_i a subset H_i of the BFS
// tree's edges. Because construction claims always travel rootward, the
// natural local representation is one record per part that node v has
// heard of, kept in a slice sorted by part ID: whether the part's shortcut
// contains v's parent edge (ClaimUp, HasUp), the ports to children whose
// edges it carries (AddDownPort, DownPorts), learned when claims passed by,
// and the depth of the block's root once SetupBlocks has delivered it
// (RootDepth). The blocks of P_i are the connected components of the
// forest (V(H_i), H_i); each is a subtree of T whose root is its member
// closest to the tree root, so counting the roots counts the blocks.
package shortcut
