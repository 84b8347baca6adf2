package congest

import (
	"errors"
	"fmt"
	"testing"

	"shortcutpa/internal/graph"
)

// sparse_test.go covers the engine on sparse activity: rounds in which a
// handful of nodes are awake, so the ceil(n/64)-word bitset drain is nearly
// all of the scheduler's work. Every test runs a protocol on the engine and
// on the reference model (model_test.go) and requires the complete
// observable outcome to be bit-identical. The teeth are ActivityStats: a
// comparison only counts if the workload really ran sparse rounds.

// simulator runs phases on the engine (workers >= 1) or on the reference
// model (workers == 0), with protocol bodies written once against nodeView.
type simulator struct {
	net *Network
	m   *model
	g   *graph.Graph
	sc  *Scenario
}

func newSimulator(t *testing.T, g *graph.Graph, seed int64, spec string, workers int) *simulator {
	t.Helper()
	s := &simulator{g: g}
	if spec != "" {
		sc, err := ParseScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		s.sc = sc
	}
	if workers == 0 {
		s.m = newModel(g, seed, s.sc)
		return s
	}
	s.net = NewNetworkWorkers(g, seed, workers)
	if err := s.net.SetScenario(s.sc); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *simulator) run(name string, body func(c nodeView, v int) bool, budget int64) (Metrics, error) {
	if s.m != nil {
		cost, err, pmsg, _ := s.m.run(name, func(c *modelCtx, v int) bool { return body(c, v) }, budget)
		if pmsg != "" {
			panic(pmsg)
		}
		return cost, err
	}
	return s.net.RunNodes(name, NodeProcFunc(func(ctx *Ctx, v int) bool { return body(ctx, v) }), budget)
}

// stats returns the stepped and sparse-round counters and the fault counts.
func (s *simulator) stats() (stepped, sparse int64, faults string) {
	if s.m != nil {
		return s.m.stepped, s.m.sparse, fmt.Sprintf("%d/%d", len(s.m.crashed), len(s.m.dead))
	}
	stepped, sparse = s.net.ActivityStats()
	crashed, dead := s.net.FaultCounts()
	return stepped, sparse, fmt.Sprintf("%d/%d", crashed, dead)
}

// reset is Network.Reset on the engine and a fresh model on the model.
func (s *simulator) reset(seed int64) {
	if s.m != nil {
		s.m = newModel(s.g, seed, s.sc)
		return
	}
	s.net.Reset()
}

// tokenWalk runs a single token down a path graph: node 0 launches it in
// round 0 (the all-nodes first round) and each node forwards it to its
// higher neighbor the round it arrives. After round 0 exactly one node is
// scheduled per round — the sparsest protocol the engine can execute.
func tokenWalk(t *testing.T, n, workers int, spec string) (string, *simulator) {
	t.Helper()
	s := newSimulator(t, graph.Path(n), 7, spec, workers)
	steps := make([]int64, n)
	hops := make([]int64, n)
	cost, err := s.run("walk", func(c nodeView, v int) bool {
		steps[v]++
		got := int64(-1)
		c.ForRecv(func(in Incoming) { got = in.Msg.A })
		if (c.Round() == 0 && v == 0) || got >= 0 {
			hops[v] = c.Round() + 1
			if v < n-1 {
				c.Send(c.Degree()-1, Message{A: int64(v + 1)})
			}
		}
		return false
	}, int64(n)+8)
	stepped, _, faults := s.stats()
	out := fmt.Sprintf("err=%v cost=%+v faults=%s stepped=%d steps=%v hops=%v",
		err, cost, faults, stepped, steps, hops)
	return out, s
}

// TestSparseMatchesDenseTokenWalk pins bit-identity on the sparse extreme:
// both engines must match the reference model's per-node step counts,
// arrival rounds, Metrics, and stepped count, while counting nearly every
// round as sparse.
func TestSparseMatchesDenseTokenWalk(t *testing.T) {
	const n = 400
	want, wantSim := tokenWalk(t, n, 0, "")
	wantStepped, wantSparse, _ := wantSim.stats()
	for _, workers := range []int{1, 4} {
		got, s := tokenWalk(t, n, workers, "")
		if got != want {
			t.Fatalf("workers=%d diverged from the model:\n got %s\nwant %s", workers, got, want)
		}
		if _, sparse, _ := s.stats(); sparse != wantSparse || sparse < int64(n)/2 {
			t.Fatalf("workers=%d counted %d sparse rounds, model %d, want >= %d", workers, sparse, wantSparse, n/2)
		}
	}
	// The walk steps every node once in round 0, then one node per hop plus
	// the quiescence tail — activity linear in n, not n per round.
	if wantStepped > int64(3*n) {
		t.Fatalf("token walk stepped %d nodes total, want O(n)=%d", wantStepped, 3*n)
	}
}

// pulseRun is the activity-swing workload: beacon nodes (every 17th) stay
// persistently active and broadcast every 8th round, waking a cascade that
// echoes for a few rounds and decays. The stepped set repeatedly grows
// from a few nodes per word to most of them and shrinks back, so runs mix
// sparse and dense rounds.
func pulseRun(t *testing.T, workers int, spec string, abortFirst bool) (string, *simulator) {
	t.Helper()
	g := graph.Torus(12, 12)
	s := newSimulator(t, g, 9, spec, workers)
	const rounds = 40
	run := func(name string, budget int64) (string, error) {
		digest := make([]int64, g.N())
		cost, err := s.run(name, func(c nodeView, v int) bool {
			got := 0
			c.ForRecv(func(in Incoming) {
				got++
				digest[v] = digest[v]*1000003 + in.Msg.A%1009 + c.Round()
			})
			r := c.Round()
			if r >= rounds {
				return false
			}
			if v%17 == 0 {
				if r%8 == 7 {
					c.Broadcast(Message{A: digest[v] + int64(v)})
				}
				return true
			}
			// Ordinary nodes echo only in the first half of each pulse
			// period, so every cascade decays instead of ping-ponging.
			if got > 0 && r%8 < 4 {
				c.Broadcast(Message{A: digest[v]})
			}
			return false
		}, budget)
		stepped, sparse, faults := s.stats()
		return fmt.Sprintf("err=%v cost=%+v faults=%s stepped=%d sparse=%d digest=%v",
			err, cost, faults, stepped, sparse, digest), err
	}
	if abortFirst {
		// Blow the round budget mid-cascade: the abort leaves scheduling
		// bits and the fault cursor mid-flight, and Reset plus the next
		// phase start must rewind all of it.
		_, err := run("pulse/abort", 5)
		var be *BudgetExceededError
		if !errors.As(err, &be) {
			t.Fatalf("abort leg: got %v, want BudgetExceededError", err)
		}
		s.reset(9)
	}
	out, err := run("pulse", rounds+8)
	if err != nil {
		t.Fatalf("pulse run: %v", err)
	}
	return out, s
}

// TestSparseMatchesDensePulseCascade pins bit-identity across swings
// between sparse and dense rounds, on both engines.
func TestSparseMatchesDensePulseCascade(t *testing.T) {
	want, _ := pulseRun(t, 0, "", false)
	for _, workers := range []int{1, 4} {
		got, s := pulseRun(t, workers, "", false)
		if got != want {
			t.Fatalf("workers=%d pulse diverged from the model:\n got %s\nwant %s", workers, got, want)
		}
		rounds := s.net.Total().Rounds
		if _, sparse, _ := s.stats(); sparse == 0 || sparse >= rounds-1 {
			t.Fatalf("workers=%d pulse run counted %d sparse of %d rounds, want a mix", workers, sparse, rounds)
		}
	}
}

// TestSparseCrashEvictsFrontier pins the fault interaction: a node crashed
// at round r leaves the schedule that same round — it neither steps nor
// forwards, whether it was woken (token walk) or persistently active
// (pulse beacon) when the crash landed.
func TestSparseCrashEvictsFrontier(t *testing.T) {
	const n = 400
	// crash=150@150: the token wakes node 150 via the round-149 send, and
	// the crash applies at the round-150 boundary — the node's woke bit is
	// already set when it dies. The walk must stop there.
	for _, spec := range []string{"crash=150@150", "crash=150@100"} {
		want, wantSim := tokenWalk(t, n, 0, spec)
		if cost := wantSim.m.total; cost.Rounds >= int64(n) {
			t.Fatalf("spec %q: walk ran %d rounds, crash did not stop it", spec, cost.Rounds)
		}
		for _, workers := range []int{1, 4} {
			if got, _ := tokenWalk(t, n, workers, spec); got != want {
				t.Fatalf("spec %q workers=%d diverged:\n got %s\nwant %s", spec, workers, got, want)
			}
		}
	}
	// Beacon 34 is in the active set when it crashes mid-run; edge 3-4
	// dies while cascades are crossing it.
	const spec = "crash=34@12;drop=3-4@6"
	want, _ := pulseRun(t, 0, spec, false)
	for _, workers := range []int{1, 4} {
		if got, _ := pulseRun(t, workers, spec, false); got != want {
			t.Fatalf("faulty pulse workers=%d diverged:\n got %s\nwant %s", workers, got, want)
		}
	}
}

// TestSparseResetRewindsFrontierState aborts a faulty pulse run mid-cascade
// — scheduling bits set, fault cursor advanced — then Resets and reruns.
// The rerun must be bit-identical to the model's fresh run on both engines.
func TestSparseResetRewindsFrontierState(t *testing.T) {
	const spec = "crash=40@9;drop=3-4@6"
	want, _ := pulseRun(t, 0, spec, false)
	for _, workers := range []int{1, 4} {
		if reused, _ := pulseRun(t, workers, spec, true); reused != want {
			t.Fatalf("workers=%d: post-Reset run diverged from fresh:\n got %s\nwant %s",
				workers, reused, want)
		}
	}
}

// TestSparseDegenerateSizes runs tiny graphs (including an edgeless single
// node) on both engines: one partial bitset word, and at workers 2 an empty
// first shard, since step boundaries round down to 64 nodes.
func TestSparseDegenerateSizes(t *testing.T) {
	builds := []func() *graph.Graph{
		func() *graph.Graph { return graph.Path(1) },
		func() *graph.Graph { return graph.Path(2) },
		func() *graph.Graph { return graph.Cycle(3) },
	}
	for bi, build := range builds {
		run := func(workers int) string {
			g := build()
			s := newSimulator(t, g, 5, "", workers)
			heard := make([]int64, g.N())
			cost, err := s.run("tiny", func(c nodeView, v int) bool {
				c.ForRecv(func(in Incoming) { heard[v] += in.Msg.A })
				if c.Round() < 2 {
					c.Broadcast(Message{A: int64(v + 1)})
					return true
				}
				return false
			}, 8)
			return fmt.Sprintf("err=%v cost=%+v heard=%v", err, cost, heard)
		}
		want := run(0)
		for _, workers := range []int{1, 2} {
			if got := run(workers); got != want {
				t.Fatalf("graph %d workers=%d: got %s, want %s", bi, workers, got, want)
			}
		}
	}
}

// TestSparseRenormInterplay forces stamp renormalization every 48 rounds
// under a 300-round sparse walk: the scheduling bitsets carry no round
// numbers, so a renorm boundary mid-walk must be invisible.
func TestSparseRenormInterplay(t *testing.T) {
	old := stampRenormThreshold
	stampRenormThreshold = 48
	defer func() { stampRenormThreshold = old }()
	const n = 300
	want, _ := tokenWalk(t, n, 0, "")
	for _, workers := range []int{1, 4} {
		got, s := tokenWalk(t, n, workers, "")
		if got != want {
			t.Fatalf("workers=%d renorm walk diverged:\n got %s\nwant %s", workers, got, want)
		}
		if s.net.epoch == 0 {
			t.Fatalf("workers=%d: the walk never renormalized", workers)
		}
	}
}
