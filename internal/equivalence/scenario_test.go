package equivalence

import (
	"fmt"
	"reflect"
	"testing"

	"shortcutpa/internal/congest"
)

// scenario_test.go is the fault-injection leg of the equivalence harness:
// every fixture, replayed under a scripted fault scenario, must be
// bit-identical across the sequential and parallel engines (workers 1, 4,
// 8) and across fresh-vs-Reset-reused networks. Under faults a protocol may
// legitimately fail — a budget starved by dead edges, a verification that
// cannot settle — so the observable execution includes the error: a faulty
// run that errs differently on two engines is as much a determinism break
// as one that answers differently.

// faultExecution is execution extended with the run's failure, if any.
type faultExecution struct {
	Output string
	Err    string
	Total  congest.Metrics
	Phases []congest.Phase
}

// runScenario executes one protocol on net under the scenario and captures
// output-or-error plus the cost accounting.
func runScenario(p protocol, net *congest.Network, sc *congest.Scenario) (*faultExecution, error) {
	if err := net.SetScenario(sc); err != nil {
		return nil, err
	}
	out, err := p.run(net)
	ex := &faultExecution{Output: out, Total: net.Total(), Phases: net.Phases()}
	if err != nil {
		ex.Err = err.Error()
	}
	return ex, nil
}

// executeScenario runs the protocol under the scenario on a fresh network.
func executeScenario(p protocol, sc *congest.Scenario, seed int64, workers int) (*faultExecution, error) {
	net := congest.NewNetworkWorkers(p.graph(seed), seed, workers)
	return runScenario(p, net, sc)
}

// executeScenarioReused runs the protocol under the scenario twice on one
// network with a Reset between, capturing the second execution — the replay
// a warm-network serving cache produces. Reset rewinds the attached
// scenario, so the replay must reproduce the same faults.
func executeScenarioReused(p protocol, sc *congest.Scenario, seed int64, workers int) (*faultExecution, error) {
	net := congest.NewNetworkWorkers(p.graph(seed), seed, workers)
	if _, err := runScenario(p, net, sc); err != nil {
		return nil, err
	}
	net.Reset()
	out, err := p.run(net)
	ex := &faultExecution{Output: out, Total: net.Total(), Phases: net.Phases()}
	if err != nil {
		ex.Err = err.Error()
	}
	return ex, nil
}

// compareFaultExecutions reports any field where two executions of the same
// faulty fixture diverged.
func compareFaultExecutions(t *testing.T, label string, got, want *faultExecution) {
	t.Helper()
	if got.Output != want.Output {
		t.Errorf("%s: output diverged\ngot:  %s\nwant: %s", label, clip(got.Output), clip(want.Output))
	}
	if got.Err != want.Err {
		t.Errorf("%s: error diverged\ngot:  %q\nwant: %q", label, got.Err, want.Err)
	}
	if got.Total != want.Total {
		t.Errorf("%s: total cost %+v, want %+v", label, got.Total, want.Total)
	}
	if !reflect.DeepEqual(got.Phases, want.Phases) {
		t.Errorf("%s: per-phase cost log diverged", label)
	}
}

// scriptedScenarios are the shared fault scripts. Crash targets stay below
// the smallest fixture graph (torus, 36 nodes) so every scenario is valid on
// every fixture; edge drops are deliberately absent here because a scripted
// edge must exist in the topology (congest's own tests cover drops on known
// graphs), while the seed-faults clauses exercise random edge drops
// everywhere. Crash rounds are chosen so the fixtures fail (or finish) fast
// rather than spending their full construction budgets: mid-construction
// crashes can legitimately send the CoreFast retry loop into six-figure
// round counts, which is correct behavior but far too slow to replay across
// the whole engine × reuse matrix on every push.
func scriptedScenarios(t *testing.T) []*congest.Scenario {
	t.Helper()
	var out []*congest.Scenario
	for _, spec := range []string{
		// One crash in the first round: every protocol dies in leader
		// election, the earliest shared phase.
		"crash=7@1",
		// A cascade of three crashes across the opening rounds.
		"crash=3@2;crash=11@9;crash=20@40",
		// A scripted crash plus aggressive random faults: random crash and
		// edge-drop draws land within the first dozens of rounds.
		"crash=5@10;seed-faults=0.02;fault-seed=3",
		// A late crash, after the cheap fixtures have finished: some runs
		// complete with no error despite the dead node, others lose it
		// mid-protocol — the post-fault completion path.
		"crash=7@400",
	} {
		sc, err := congest.ParseScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sc)
	}
	return out
}

// TestScenarioEquivalenceAcrossEnginesAndReuse is the fault-model
// determinism proof: every fixture × every scripted scenario must replay
// bit-identically on workers 1, 4, and 8, and on a fresh network vs a
// Reset-reused one.
func TestScenarioEquivalenceAcrossEnginesAndReuse(t *testing.T) {
	const seed = 2
	workerCounts := []int{4, 8}
	if testing.Short() {
		workerCounts = []int{4}
	}
	for _, p := range protocols() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for i, sc := range scriptedScenarios(t) {
				want, err := executeScenario(p, sc, seed, 1)
				if err != nil {
					t.Fatalf("scenario %d sequential: %v", i, err)
				}
				for _, w := range workerCounts {
					got, err := executeScenario(p, sc, seed, w)
					if err != nil {
						t.Fatalf("scenario %d workers %d: %v", i, w, err)
					}
					compareFaultExecutions(t, fmt.Sprintf("scenario %d workers %d", i, w), got, want)
				}
				reused, err := executeScenarioReused(p, sc, seed, 1)
				if err != nil {
					t.Fatalf("scenario %d reused: %v", i, err)
				}
				compareFaultExecutions(t, fmt.Sprintf("scenario %d reused", i), reused, want)
			}
		})
	}
}

// goldenScenarioCosts pins the exact execution of deterministic crash
// scenarios at master seed 42 on the sequential engine — the faulty
// counterpart of goldenCosts. The pinned error string is deliberately part
// of the contract: under faults the error IS the protocol's answer, and it
// must be as reproducible as any output (which is why core reports its
// worst failing part deterministically instead of by map order).
var goldenScenarioCosts = []struct {
	name     string
	scenario string
	rounds   int64
	messages int64
	err      string
}{
	{
		name: "mst", scenario: "crash=7@1",
		rounds: 7, messages: 1302,
		err: "core: leader election: tree: node 7 disagrees on leader (disconnected graph?)",
	},
	{
		name: "sssp", scenario: "crash=3@2;crash=11@9;crash=20@40",
		rounds: 7, messages: 1314,
		err: "core: leader election: tree: node 3 disagrees on leader (disconnected graph?)",
	},
	{
		name: "corefast-pa", scenario: "crash=7@150",
		rounds: 285, messages: 3097,
		err: "core: part 12345 failed final verification",
	},
	{
		name: "domset", scenario: "crash=7@1",
		rounds: 8, messages: 520,
		err: "core: leader election: tree: node 7 disagrees on leader (disconnected graph?)",
	},
}

// TestGoldenScenarioCosts is the fault-model regression anchor: fixed seed,
// fixed crash script, exact Rounds/Messages/error — on a fresh sequential
// network, on the parallel engine, and replayed through Reset. Movement
// here means the fault semantics changed and must be a conscious decision.
func TestGoldenScenarioCosts(t *testing.T) {
	byName := make(map[string]protocol)
	for _, p := range protocols() {
		byName[p.name] = p
	}
	for _, want := range goldenScenarioCosts {
		want := want
		t.Run(want.name+"/"+want.scenario, func(t *testing.T) {
			p, ok := byName[want.name]
			if !ok {
				t.Fatalf("no protocol %q in the harness", want.name)
			}
			sc, err := congest.ParseScenario(want.scenario)
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string, ex *faultExecution) {
				t.Helper()
				if ex.Total.Rounds != want.rounds || ex.Total.Messages != want.messages {
					t.Errorf("%s: cost = %d rounds / %d messages, golden %d / %d",
						label, ex.Total.Rounds, ex.Total.Messages, want.rounds, want.messages)
				}
				if ex.Err != want.err {
					t.Errorf("%s: err = %q, golden %q", label, ex.Err, want.err)
				}
			}
			ex, err := executeScenario(p, sc, 42, 1)
			if err != nil {
				t.Fatal(err)
			}
			check("sequential", ex)
			par, err := executeScenario(p, sc, 42, 4)
			if err != nil {
				t.Fatal(err)
			}
			check("workers=4", par)
			reused, err := executeScenarioReused(p, sc, 42, 1)
			if err != nil {
				t.Fatal(err)
			}
			check("reused", reused)
		})
	}
}

// TestRandomScenarioProperty is the property-style randomized leg: N seeded
// random fault scenarios per protocol (mst, sssp, corefast-pa — the
// corollary protocols on their standard fixtures), each asserting
// sequential == parallel == Reset-reused bit-identity. The scenarios differ
// only in fault seed, so each drains a different random crash/drop stream
// through the same protocols.
func TestRandomScenarioProperty(t *testing.T) {
	const seed = 5
	trials := 5
	if testing.Short() {
		trials = 3
	}
	byName := make(map[string]protocol)
	for _, p := range protocols() {
		byName[p.name] = p
	}
	for _, name := range []string{"mst", "sssp", "corefast-pa"} {
		p, ok := byName[name]
		if !ok {
			t.Fatalf("no protocol %q in the harness", name)
		}
		t.Run(name, func(t *testing.T) {
			for trial := 1; trial <= trials; trial++ {
				sc, err := congest.ParseScenario(fmt.Sprintf("seed-faults=0.02;fault-seed=%d", trial))
				if err != nil {
					t.Fatal(err)
				}
				want, err := executeScenario(p, sc, seed, 1)
				if err != nil {
					t.Fatalf("trial %d sequential: %v", trial, err)
				}
				got, err := executeScenario(p, sc, seed, 4)
				if err != nil {
					t.Fatalf("trial %d parallel: %v", trial, err)
				}
				compareFaultExecutions(t, fmt.Sprintf("trial %d parallel", trial), got, want)
				reused, err := executeScenarioReused(p, sc, seed, 4)
				if err != nil {
					t.Fatalf("trial %d reused: %v", trial, err)
				}
				compareFaultExecutions(t, fmt.Sprintf("trial %d reused", trial), reused, want)
			}
		})
	}
}
