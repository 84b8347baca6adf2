package part

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
)

func TestFromDenseSamePartMatchesPartition(t *testing.T) {
	g := graph.Grid(4, 5)
	parts := graph.StripePartition(4, 5)
	net := congest.NewNetwork(g, 1)
	in, err := FromDense(net, parts)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		for p := 0; p < g.Degree(v); p++ {
			want := parts[g.Neighbor(v, p)] == parts[v]
			if got := in.SameRow(v)[p]; got != want {
				t.Fatalf("node %d port %d: SamePart %v, want %v", v, p, got, want)
			}
		}
	}
	if _, k := graph.NormalizeParts(in.Dense); k != 4 {
		t.Fatalf("Dense labels %d parts, want 4", k)
	}
}

func TestFromDenseRejectsDisconnectedParts(t *testing.T) {
	g := graph.Path(4)
	net := congest.NewNetwork(g, 1)
	if _, err := FromDense(net, []int{0, 1, 0, 1}); err == nil {
		t.Fatal("disconnected partition accepted")
	}
}

func TestElectLeadersPerPart(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(50, 0.06, rng)
	net := congest.NewNetwork(g, 3)
	parts := graph.RandomConnectedPartition(g, 6, rng)
	in, err := FromDense(net, parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ElectLeaders(net, in, net.RoundCap()); err != nil {
		t.Fatal(err)
	}
	// Every part's leader ID is the min ID in the part, and all members
	// agree; exactly one member is the leader.
	minID := make(map[int]int64)
	for v := 0; v < g.N(); v++ {
		p := in.Dense[v]
		if id, ok := minID[p]; !ok || net.ID(v) < id {
			minID[p] = net.ID(v)
		}
	}
	leaders := make(map[int]int)
	for v := 0; v < g.N(); v++ {
		p := in.Dense[v]
		if in.LeaderID[v] != minID[p] {
			t.Fatalf("node %d: leader ID %d, want %d", v, in.LeaderID[v], minID[p])
		}
		if in.IsLeader[v] {
			leaders[p]++
		}
	}
	for p, c := range leaders {
		if c != 1 {
			t.Fatalf("part %d has %d leaders", p, c)
		}
	}
	if _, k := graph.NormalizeParts(in.Dense); len(leaders) != k {
		t.Fatalf("%d parts have leaders, want %d", len(leaders), k)
	}
}

func TestRestrictedBFSCoverageVerdicts(t *testing.T) {
	// Path of 30 nodes, split into a short part (6 nodes) and a long part
	// (24 nodes). With radius 8 the short part is covered; the long one is
	// covered only if its leader sits centrally — with flood-min the leader
	// is at the min-ID node, so test both outcomes via the oracle check.
	g := graph.Path(30)
	parts := make([]int, 30)
	for v := 6; v < 30; v++ {
		parts[v] = 1
	}
	net := congest.NewNetwork(g, 7)
	in, err := FromDense(net, parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ElectLeaders(net, in, net.RoundCap()); err != nil {
		t.Fatal(err)
	}
	b, err := RestrictedBFS(net, in, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAgainstDense(b, in); err != nil {
		t.Fatal(err)
	}
	// The 6-node part always fits in radius 8.
	for v := 0; v < 6; v++ {
		if !b.Covered[v] {
			t.Fatalf("node %d of the 6-node part not covered", v)
		}
		if b.Size[v] != 6 {
			t.Fatalf("node %d sees size %d, want 6", v, b.Size[v])
		}
	}
}

func TestRestrictedBFSSmallRadiusLeavesUncovered(t *testing.T) {
	g := graph.Path(20)
	net := congest.NewNetwork(g, 9)
	in, err := FromDense(net, graph.WholePartition(20))
	if err != nil {
		t.Fatal(err)
	}
	if err := ElectLeaders(net, in, net.RoundCap()); err != nil {
		t.Fatal(err)
	}
	b, err := RestrictedBFS(net, in, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if b.Covered[v] && !b.Joined[v] {
			t.Fatalf("node %d covered but not joined", v)
		}
		if b.Covered[v] {
			t.Fatalf("node %d claims covered with radius 2 on P20", v)
		}
	}
	// Joined nodes are exactly those within 2 hops of the leader.
	leader := -1
	for v := 0; v < g.N(); v++ {
		if in.IsLeader[v] {
			leader = v
		}
	}
	dist := g.BFSFrom(leader)
	for v := 0; v < g.N(); v++ {
		if b.Joined[v] != (dist[v] <= 2) {
			t.Fatalf("node %d joined=%v at distance %d with radius 2", v, b.Joined[v], dist[v])
		}
	}
}

func TestRestrictedBFSRespectsPartBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 6; trial++ {
		g := graph.RandomConnected(40, 0.08, rng)
		net := congest.NewNetwork(g, int64(trial))
		parts := graph.RandomConnectedPartition(g, 5, rng)
		in, err := FromDense(net, parts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ElectLeaders(net, in, net.RoundCap()); err != nil {
			t.Fatal(err)
		}
		b, err := RestrictedBFS(net, in, int64(g.N()))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAgainstDense(b, in); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// With radius n every part is covered, and parent edges stay inside
		// the part.
		for v := 0; v < g.N(); v++ {
			if !b.Covered[v] {
				t.Fatalf("trial %d: node %d uncovered at radius n", trial, v)
			}
			if p := b.ParentPort[v]; p >= 0 {
				if in.Dense[g.Neighbor(v, p)] != in.Dense[v] {
					t.Fatalf("trial %d: node %d parent crosses part boundary", trial, v)
				}
			}
		}
	}
}

// checkAgainstDense verifies (engine-side) that coverage verdicts are
// consistent with the dense partition: every node of a covered part is
// joined and got the right size.
func checkAgainstDense(b *BFS, in *Info) error {
	sizes := make(map[int]int64)
	covered := make(map[int]bool)
	for v, p := range in.Dense {
		sizes[p]++
		if b.Covered[v] {
			covered[p] = true
		}
	}
	for v, p := range in.Dense {
		if covered[p] {
			if !b.Joined[v] {
				return fmt.Errorf("part: node %d of covered part %d not joined", v, p)
			}
			if !b.Covered[v] || b.Size[v] != sizes[p] {
				return fmt.Errorf("part: node %d verdict (%v,%d), want (true,%d)", v, b.Covered[v], b.Size[v], sizes[p])
			}
		}
	}
	return nil
}

// TestRestrictedBFSVerdictHitsRoundCap: a child that crashes once the join
// wave is over never reports, so its parent waits in part/bfs-verdict until
// the network's RoundCap ends the phase with a BudgetExceededError (a
// verdict-less quiescence would hide the fault).
func TestRestrictedBFSVerdictHitsRoundCap(t *testing.T) {
	g := graph.Path(20)
	run := func(s *congest.Scenario) (*congest.Network, *BFS, error) {
		net := congest.NewNetwork(g, 9)
		if err := net.SetScenario(s); err != nil {
			t.Fatal(err)
		}
		in, err := FromDense(net, graph.WholePartition(g.N()))
		if err != nil {
			t.Fatal(err)
		}
		if err := ElectLeaders(net, in, net.RoundCap()); err != nil {
			t.Fatal(err)
		}
		b, err := RestrictedBFS(net, in, int64(g.N()))
		return net, b, err
	}
	// A fault-free run fixes the round the verdict phase starts at and a
	// leader's child to crash there.
	net, b, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var start int64
	for _, ph := range net.Phases() {
		if ph.Name == "part/bfs-verdict" {
			break
		}
		start += ph.Cost.Rounds
	}
	leader := -1
	for v := range b.ParentPort {
		if b.ParentPort[v] < 0 && len(b.ChildPorts[v]) > 0 {
			leader = v
		}
	}
	if leader < 0 {
		t.Fatal("no leader with children")
	}
	child := g.Neighbor(leader, b.ChildPorts[leader][0])

	net, _, err = run(&congest.Scenario{Crashes: []congest.NodeCrash{{Node: child, Round: start}}})
	var be *congest.BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want a BudgetExceededError", err)
	}
	if want := (congest.BudgetExceededError{Phase: "part/bfs-verdict", Budget: net.RoundCap()}); *be != want {
		t.Fatalf("err = %+v, want %+v", *be, want)
	}
}
