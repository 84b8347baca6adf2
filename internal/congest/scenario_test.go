package congest

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"shortcutpa/internal/graph"
)

// FaultCounts reports how many nodes have crashed and how many edges have
// died so far (an edge incident to a crashed node counts as dead). Both are
// zero on a fault-free network and return to zero on Reset.
func (n *Network) FaultCounts() (crashedNodes, deadEdges int) {
	if n.fault == nil {
		return 0, 0
	}
	return n.fault.downNodes, n.fault.deadEdges
}

// scenario_test.go covers the fault-injection layer: the scenario spec
// grammar, SetScenario's topology validation, the observable fail-stop
// semantics (crashed nodes stop stepping, dead ports deliver nothing,
// sends into them are counted-then-dropped, PortDown reports the death),
// and the determinism contract — sequential == parallel, and Reset replays
// the identical fault sequence.

func TestParseScenarioGrammar(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scenario
	}{
		{"", Scenario{}},
		{"crash=17@100", Scenario{Crashes: []NodeCrash{{17, 100}}}},
		{"crash=17@100,4@2", Scenario{Crashes: []NodeCrash{{17, 100}, {4, 2}}}},
		{"drop=3-9@50", Scenario{Drops: []EdgeDrop{{3, 9, 50}}}},
		{"seed-faults=0.01", Scenario{Rate: 0.01}},
		{"fault-seed=7", Scenario{FaultSeed: 7}},
		{
			"crash=17@100;drop=3-9@50;seed-faults=0.01",
			Scenario{Crashes: []NodeCrash{{17, 100}}, Drops: []EdgeDrop{{3, 9, 50}}, Rate: 0.01},
		},
		{
			// '+' is an accepted clause separator so a whole scenario can
			// ride inside one jobs-grammar value.
			"crash=1@5+drop=0-1@2+fault-seed=3",
			Scenario{Crashes: []NodeCrash{{1, 5}}, Drops: []EdgeDrop{{0, 1, 2}}, FaultSeed: 3},
		},
		{"crash=1@5; ;drop=0-1@2", Scenario{Crashes: []NodeCrash{{1, 5}}, Drops: []EdgeDrop{{0, 1, 2}}}},
	} {
		got, err := ParseScenario(tc.in)
		if err != nil {
			t.Errorf("ParseScenario(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(*got, tc.want) {
			t.Errorf("ParseScenario(%q) = %+v, want %+v", tc.in, *got, tc.want)
		}
	}
}

func TestParseScenarioErrors(t *testing.T) {
	for _, in := range []string{
		"crash",               // no key=value
		"crash=17",            // missing @round
		"crash=17@",           // empty round
		"crash=x@3",           // bad index
		"crash=-2@3",          // negative node
		"crash=1@-3",          // negative round
		"crash=99999999999@1", // index over the int32 CSR ceiling
		"drop=3@50",           // missing u-v
		"drop=3-@50",          // empty v — atoi failure
		"drop=3-9",            // missing @round
		"seed-faults=2",       // rate > 1
		"seed-faults=-0.5",    // rate < 0
		"seed-faults=NaN",     // non-finite
		"seed-faults=+Inf",
		"seed-faults=x",
		"fault-seed=abc",
		"churn=0.5@9", // unknown key
	} {
		if _, err := ParseScenario(in); err == nil {
			t.Errorf("ParseScenario(%q) succeeded, want error", in)
		}
	}
}

func TestScenarioStringRoundTrip(t *testing.T) {
	for _, in := range []string{
		"",
		"crash=17@100",
		"crash=17@100,4@2;drop=3-9@50,0-1@2;seed-faults=0.015625;fault-seed=-9",
		"seed-faults=0.01",
	} {
		sc, err := ParseScenario(in)
		if err != nil {
			t.Fatalf("ParseScenario(%q): %v", in, err)
		}
		again, err := ParseScenario(sc.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", sc.String(), in, err)
		}
		if !reflect.DeepEqual(sc, again) {
			t.Errorf("round trip of %q: %+v -> %q -> %+v", in, sc, sc.String(), again)
		}
	}
	if s := (*Scenario)(nil).String(); s != "" {
		t.Errorf("nil scenario String() = %q, want empty", s)
	}
}

func TestSetScenarioValidation(t *testing.T) {
	net := NewNetwork(graph.Path(4), 1) // edges 0-1, 1-2, 2-3
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"crash-node-out-of-range", Scenario{Crashes: []NodeCrash{{Node: 4, Round: 1}}}},
		{"crash-negative-node", Scenario{Crashes: []NodeCrash{{Node: -1, Round: 1}}}},
		{"crash-negative-round", Scenario{Crashes: []NodeCrash{{Node: 1, Round: -1}}}},
		{"drop-not-an-edge", Scenario{Drops: []EdgeDrop{{U: 0, V: 2, Round: 1}}}},
		{"drop-node-out-of-range", Scenario{Drops: []EdgeDrop{{U: 0, V: 9, Round: 1}}}},
		{"drop-negative-round", Scenario{Drops: []EdgeDrop{{U: 0, V: 1, Round: -1}}}},
		{"rate-out-of-range", Scenario{Rate: 1.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := net.SetScenario(&tc.sc); err == nil {
				t.Fatal("SetScenario accepted an invalid scenario")
			}
			// A rejected scenario must leave the network fault-free.
			if net.fault != nil {
				t.Fatal("rejected scenario left state attached")
			}
		})
	}
	// A valid scenario attaches; SetScenario(nil) detaches.
	if err := net.SetScenario(&Scenario{Crashes: []NodeCrash{{Node: 1, Round: 2}}}); err != nil {
		t.Fatal(err)
	}
	if net.fault == nil {
		t.Fatal("valid scenario did not attach")
	}
	if err := net.SetScenario(nil); err != nil {
		t.Fatal(err)
	}
	if net.fault != nil {
		t.Fatal("SetScenario(nil) did not detach")
	}
}

// broadcastLog runs a deterministic broadcast protocol for sendRounds
// rounds on net: every live node broadcasts its index each round and logs
// every reception as "r<round>p<port>:<sender>", plus each round's PortDown
// view. The log is the complete observable execution for the semantics
// tests below.
func broadcastLog(t *testing.T, net *Network, sendRounds int64) ([]string, Metrics) {
	t.Helper()
	logs := make([]string, net.N())
	cost, err := net.RunNodes("scenario/broadcast", NodeProcFunc(func(ctx *Ctx, v int) bool {
		ctx.ForRecv(func(in Incoming) {
			logs[v] += fmt.Sprintf("r%dp%d:%d ", ctx.Round(), in.Port, in.Msg.A)
		})
		for p := 0; p < ctx.Degree(); p++ {
			if ctx.PortDown(p) {
				logs[v] += fmt.Sprintf("r%ddown%d ", ctx.Round(), p)
			}
		}
		if ctx.Round() < sendRounds {
			ctx.Broadcast(Message{A: int64(v)})
			return true
		}
		return false
	}), 64)
	if err != nil {
		t.Fatal(err)
	}
	return logs, cost
}

// TestCrashSemantics: a crashed node stops stepping at its crash round, its
// in-flight messages are destroyed at the boundary, and its neighbors see
// the shared ports go down. Path(3) topology: 0-1-2, crash node 2 at round 3.
func TestCrashSemantics(t *testing.T) {
	net := NewNetwork(graph.Path(3), 1)
	sc, err := ParseScenario("crash=2@3")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetScenario(sc); err != nil {
		t.Fatal(err)
	}
	logs, cost := broadcastLog(t, net, 6)

	// Node 1 hears node 2 (on port 1) at rounds 1 and 2 only: the message 2
	// sent in round 2 is destroyed at round 3's boundary, and 2 never sends
	// again. Port 1 reads down from round 3 on.
	if strings.Contains(logs[1], "r3p1:2") || strings.Contains(logs[1], "r4p1:2") {
		t.Errorf("node 1 heard the crashed node after the crash boundary:\n%s", logs[1])
	}
	for _, want := range []string{"r1p1:2", "r2p1:2", "r3down1", "r4down1"} {
		if !strings.Contains(logs[1], want) {
			t.Errorf("node 1 log missing %q:\n%s", want, logs[1])
		}
	}
	// Node 2 steps in rounds 0..2 and never after: its last possible log
	// entries are from round 2.
	if strings.Contains(logs[2], "r3") || strings.Contains(logs[2], "r4") {
		t.Errorf("crashed node 2 was stepped after its crash round:\n%s", logs[2])
	}
	// Node 0 is two hops from the crash: its port never goes down.
	if strings.Contains(logs[0], "down") {
		t.Errorf("node 0 observed a dead port:\n%s", logs[0])
	}

	// Message accounting: rounds 0-2 all three nodes broadcast (deg 1+2+1 =
	// 4 msgs); rounds 3-5 node 2 is dead, nodes 0 and 1 broadcast (3 msgs,
	// including 1's counted-then-dropped send into dead port 1).
	if want := int64(3*4 + 3*3); cost.Messages != want {
		t.Errorf("Messages = %d, want %d (dead-port sends must be counted)", cost.Messages, want)
	}

	if crashed, dead := net.FaultCounts(); crashed != 1 || dead != 1 {
		t.Errorf("FaultCounts = (%d, %d), want (1, 1)", crashed, dead)
	}
}

// TestEdgeDropSemantics: a dropped edge destroys the delivery in flight
// across it and goes silent in both directions, while both endpoints keep
// running. Path(3), drop edge 0-1 at round 2.
func TestEdgeDropSemantics(t *testing.T) {
	net := NewNetwork(graph.Path(3), 1)
	sc, err := ParseScenario("drop=0-1@2")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetScenario(sc); err != nil {
		t.Fatal(err)
	}
	logs, _ := broadcastLog(t, net, 6)

	// Node 1 hears node 0 at round 1 only; the round-1 send dies at the
	// round-2 boundary. Both endpoints observe the dead port from round 2.
	if !strings.Contains(logs[1], "r1p0:0") {
		t.Errorf("node 1 missed the pre-drop delivery:\n%s", logs[1])
	}
	for r := 2; r <= 6; r++ {
		if strings.Contains(logs[1], fmt.Sprintf("r%dp0:0", r)) {
			t.Errorf("node 1 heard across the dropped edge at round %d:\n%s", r, logs[1])
		}
	}
	for _, tc := range []struct {
		v    int
		want string
	}{{0, "r2down0"}, {1, "r2down0"}} {
		if !strings.Contains(logs[tc.v], tc.want) {
			t.Errorf("node %d log missing %q:\n%s", tc.v, tc.want, logs[tc.v])
		}
	}
	// The unaffected edge 1-2 keeps delivering to the end.
	if !strings.Contains(logs[2], "r6p0:1") {
		t.Errorf("node 2 lost deliveries on the live edge:\n%s", logs[2])
	}
	// Both endpoints of the dropped edge are alive: node 0 still steps and
	// logs its dead port in round 6.
	if !strings.Contains(logs[0], "r6down0") {
		t.Errorf("node 0 stopped stepping after the edge drop:\n%s", logs[0])
	}
	if crashed, dead := net.FaultCounts(); crashed != 0 || dead != 1 {
		t.Errorf("FaultCounts = (%d, %d), want (0, 1)", crashed, dead)
	}
}

// TestFaultBetweenBroadcastAndRead pins the fault semantics of the
// broadcast buffers, which a fault cannot reach to destroy: a broadcast is
// stored once at its sender, so a delivery killed at the boundary must be
// dropped by the receiver's read instead. On Star(4), in round 0 the hub
// and leaves 1 and 2 broadcast and leaf 3 Sends to the hub; at round 1's
// boundary the scenario either drops edge 0-1 or crashes leaf 2. In round
// 1 the hub must hear exactly the survivors, in ascending sender order,
// and the leaves must hear the hub unless their edge died.
func TestFaultBetweenBroadcastAndRead(t *testing.T) {
	g := graph.Star(4)
	for _, tc := range []struct {
		spec      string
		hubHears  string // "sender:A" per delivery to the hub in round 1
		leafHears [4]bool
	}{
		{"drop=0-1@1", "2:2 3:3 ", [4]bool{false, false, true, true}},
		{"crash=2@1", "1:1 3:3 ", [4]bool{false, true, false, true}},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", tc.spec, workers), func(t *testing.T) {
				net := NewNetworkWorkers(g, 1, workers)
				sc, err := ParseScenario(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				if err := net.SetScenario(sc); err != nil {
					t.Fatal(err)
				}
				var hub string
				var leaf [4]bool
				cost, err := net.RunNodes("scenario/bcast-read", NodeProcFunc(func(ctx *Ctx, v int) bool {
					if ctx.Round() == 0 {
						if v == 3 {
							ctx.Send(0, Message{A: 3})
						} else {
							ctx.Broadcast(Message{A: int64(v)})
						}
						return false
					}
					ctx.ForRecv(func(in Incoming) {
						if ctx.Round() != 1 {
							t.Errorf("node %d heard %+v in round %d", v, in, ctx.Round())
						}
						if v == 0 {
							hub += fmt.Sprintf("%d:%d ", g.Neighbor(0, in.Port), in.Msg.A)
						} else if in.Msg.A == 0 && in.Port == 0 {
							leaf[v] = true
						} else {
							t.Errorf("leaf %d heard %+v", v, in)
						}
					})
					return false
				}), 8)
				if err != nil {
					t.Fatal(err)
				}
				if hub != tc.hubHears {
					t.Errorf("hub heard %q, want %q", hub, tc.hubHears)
				}
				if leaf != tc.leafHears {
					t.Errorf("leaves heard the hub: %v, want %v", leaf, tc.leafHears)
				}
				// Every send is charged, the killed ones included: the hub's
				// broadcast (3), leaves 1 and 2 (1 each), leaf 3's Send (1).
				if cost.Messages != 6 {
					t.Errorf("Messages = %d, want 6", cost.Messages)
				}
			})
		}
	}
}

// TestCrashAtRoundZero: a node crashed at round 0 never steps at all, even
// though the phase's first round otherwise schedules every node.
func TestCrashAtRoundZero(t *testing.T) {
	net := NewNetwork(graph.Path(3), 1)
	if err := net.SetScenario(&Scenario{Crashes: []NodeCrash{{Node: 0, Round: 0}}}); err != nil {
		t.Fatal(err)
	}
	logs, _ := broadcastLog(t, net, 3)
	if logs[0] != "" {
		t.Errorf("node 0 crashed at round 0 but produced log:\n%s", logs[0])
	}
	if !strings.Contains(logs[1], "r0down0") {
		t.Errorf("node 1 did not see port 0 down at round 0:\n%s", logs[1])
	}
}

// TestForRecvAndCanSendOnDeadPort pins the dead-port query semantics:
// ForRecv delivers nothing, CanSend stays true (the port accepts sends; they
// vanish), and a repeated Send on a dead port does not trip the double-send
// panic — there is no slot write to detect it against.
func TestForRecvAndCanSendOnDeadPort(t *testing.T) {
	net := NewNetwork(graph.Path(2), 1)
	if err := net.SetScenario(&Scenario{Drops: []EdgeDrop{{U: 0, V: 1, Round: 0}}}); err != nil {
		t.Fatal(err)
	}
	cost, err := net.RunNodes("scenario/deadport", NodeProcFunc(func(ctx *Ctx, v int) bool {
		if !ctx.PortDown(0) {
			t.Errorf("node %d round %d: PortDown(0) = false on the dropped edge", v, ctx.Round())
		}
		ctx.ForRecv(func(in Incoming) {
			t.Errorf("node %d round %d: ForRecv delivered %+v across a dead edge", v, ctx.Round(), in)
		})
		if !ctx.CanSend(0) {
			t.Errorf("node %d round %d: CanSend(0) = false on a dead port", v, ctx.Round())
		}
		ctx.Send(0, Message{A: 1})
		ctx.Send(0, Message{A: 2}) // no double-send panic on a dead port
		return ctx.Round() < 2
	}), 16)
	if err != nil {
		t.Fatal(err)
	}
	// 2 nodes x 2 sends x 3 rounds, all counted-then-dropped.
	if want := int64(12); cost.Messages != want {
		t.Errorf("Messages = %d, want %d", cost.Messages, want)
	}
}

// scenarioRun executes the randomized gossip fixture under a scenario and
// returns its observable execution (per-node digests + cost).
func scenarioRun(t *testing.T, net *Network) ([]int64, Metrics) {
	t.Helper()
	return randomizedRun(t, net)
}

// TestScenarioParallelMatchesSequential: the same scenario on the same
// graph and seed is bit-identical on the sequential and parallel engines —
// scheduled faults and seeded-random faults both.
func TestScenarioParallelMatchesSequential(t *testing.T) {
	const seed = 11
	g := graph.Torus(5, 5)
	for _, spec := range []string{
		"crash=7@2;crash=12@4",
		"drop=0-1@1;crash=3@3",
		"seed-faults=0.3",
		"seed-faults=0.2;fault-seed=99;crash=5@1",
	} {
		t.Run(spec, func(t *testing.T) {
			sc, err := ParseScenario(spec)
			if err != nil {
				t.Fatal(err)
			}
			seqNet := NewNetwork(g, seed)
			if err := seqNet.SetScenario(sc); err != nil {
				t.Fatal(err)
			}
			seq, seqCost := scenarioRun(t, seqNet)
			for _, workers := range []int{2, 4, 8} {
				parNet := NewNetworkWorkers(g, seed, workers)
				if err := parNet.SetScenario(sc); err != nil {
					t.Fatal(err)
				}
				par, parCost := scenarioRun(t, parNet)
				if parCost != seqCost {
					t.Errorf("workers=%d cost %+v, sequential %+v", workers, parCost, seqCost)
				}
				for v := range seq {
					if par[v] != seq[v] {
						t.Fatalf("workers=%d node %d digest diverged under scenario", workers, v)
					}
				}
				sc1, d1 := seqNet.FaultCounts()
				sc2, d2 := parNet.FaultCounts()
				if sc1 != sc2 || d1 != d2 {
					t.Errorf("workers=%d fault counts (%d,%d), sequential (%d,%d)", workers, sc2, d2, sc1, d1)
				}
			}
		})
	}
}

// TestScenarioReplaysAcrossReset is the serving contract for faults: Reset
// rewinds the scenario — cursor, clock, fault PRNG, death flags — so a
// reused network replays the identical faulty execution. Without Reset the
// second run demonstrably diverges (the scenario clock has moved on), which
// proves the fixture has teeth.
func TestScenarioReplaysAcrossReset(t *testing.T) {
	const seed = 21
	g := graph.Torus(5, 5)
	sc, err := ParseScenario("crash=7@2;seed-faults=0.25")
	if err != nil {
		t.Fatal(err)
	}

	freshNet := NewNetwork(g, seed)
	if err := freshNet.SetScenario(sc); err != nil {
		t.Fatal(err)
	}
	fresh, freshCost := scenarioRun(t, freshNet)

	// No Reset: the crash already happened and the fault clock keeps
	// counting, so the rerun must diverge.
	dirty := NewNetwork(g, seed)
	if err := dirty.SetScenario(sc); err != nil {
		t.Fatal(err)
	}
	scenarioRun(t, dirty)
	diverged, _ := scenarioRun(t, dirty)
	same := true
	for v := range fresh {
		if fresh[v] != diverged[v] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("fixture too weak: rerun without Reset did not diverge under the scenario")
	}

	// Reset between runs: bit-identical replay, including the fault counts.
	reused := NewNetwork(g, seed)
	if err := reused.SetScenario(sc); err != nil {
		t.Fatal(err)
	}
	scenarioRun(t, reused)
	reused.Reset()
	got, gotCost := scenarioRun(t, reused)
	if gotCost != freshCost {
		t.Errorf("replayed cost %+v, fresh %+v", gotCost, freshCost)
	}
	for v := range fresh {
		if got[v] != fresh[v] {
			t.Fatalf("node %d digest diverged on the Reset replay", v)
		}
	}
	c1, d1 := freshNet.FaultCounts()
	c2, d2 := reused.FaultCounts()
	if c1 != c2 || d1 != d2 {
		t.Errorf("replay fault counts (%d,%d), fresh (%d,%d)", c2, d2, c1, d1)
	}
	if c1 == 0 {
		t.Error("scenario crashed nobody — fixture too weak")
	}
}

// TestScenarioAcrossPhases: the scenario clock counts executed rounds
// across phases, not per phase — a crash scheduled past the first phase's
// rounds fires mid-way through the second.
func TestScenarioAcrossPhases(t *testing.T) {
	net := NewNetwork(graph.Path(2), 1)
	if err := net.SetScenario(&Scenario{Crashes: []NodeCrash{{Node: 1, Round: 5}}}); err != nil {
		t.Fatal(err)
	}
	stepped := [][]int64{make([]int64, 2), make([]int64, 2)}
	for phase := 0; phase < 2; phase++ {
		phase := phase
		if _, err := net.RunNodes(fmt.Sprintf("phase%d", phase), NodeProcFunc(func(ctx *Ctx, v int) bool {
			stepped[phase][v]++
			return ctx.Round() < 3
		}), 16); err != nil {
			t.Fatal(err)
		}
	}
	// Phase 0 runs rounds 0..3 (scenario rounds 0-3): both nodes step 4x.
	// Phase 1 starts at scenario round 4; node 1 dies at scenario round 5,
	// i.e. after one more step.
	if stepped[0][0] != 4 || stepped[0][1] != 4 {
		t.Errorf("phase 0 steps = %v, want [4 4]", stepped[0])
	}
	if stepped[1][0] != 4 || stepped[1][1] != 1 {
		t.Errorf("phase 1 steps = %v, want [4 1] (crash at scenario round 5)", stepped[1])
	}
}

// TestSetScenarioMidPhasePanics pins the exact contract panic, alongside
// the Reset message in reset_test.go.
func TestSetScenarioMidPhasePanics(t *testing.T) {
	net := NewNetwork(graph.Path(4), 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("SetScenario mid-phase did not panic")
		}
		const want = "congest: SetScenario called while a phase is running"
		if Sprint(r) != want {
			t.Fatalf("panic = %q, want %q", Sprint(r), want)
		}
	}()
	net.RunNodes("midphase/setscenario", NodeProcFunc(func(ctx *Ctx, v int) bool {
		net.SetScenario(&Scenario{Rate: 0.1})
		return false
	}), 4)
}

// TestScenarioOnEmptyAndTinyNetworks: degenerate topologies run (and
// quiesce) under scenarios without tripping engine invariants.
func TestScenarioOnEmptyAndTinyNetworks(t *testing.T) {
	empty := NewNetwork(graph.MustNew(0, nil), 1)
	if err := empty.SetScenario(&Scenario{Rate: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := empty.RunNodes("empty", NodeProcFunc(func(ctx *Ctx, v int) bool { return false }), 4); err != nil {
		t.Fatal(err)
	}

	single := NewNetwork(graph.MustNew(1, nil), 1)
	if err := single.SetScenario(&Scenario{Crashes: []NodeCrash{{Node: 0, Round: 0}}}); err != nil {
		t.Fatal(err)
	}
	steps := 0
	if _, err := single.RunNodes("single", NodeProcFunc(func(ctx *Ctx, v int) bool {
		steps++
		return true
	}), 8); err != nil {
		t.Fatal(err)
	}
	if steps != 0 {
		t.Errorf("node crashed at round 0 stepped %d times", steps)
	}
}
