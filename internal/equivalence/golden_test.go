package equivalence

import "testing"

// goldenCosts pins the exact cost accounting of every protocol fixture at
// master seed 42 on the sequential engine. These are regression anchors,
// not claims about optimal values: a future engine or protocol refactor
// that changes scheduling, message generation, or PRNG consumption will
// move them, and that movement must be a conscious decision (update the
// numbers in the same change that explains why). Costs are engine-
// independent — TestParallelEngineMatchesSequential proves the parallel
// engine reproduces these same totals.
var goldenCosts = []struct {
	name     string
	rounds   int64
	messages int64
}{
	{name: "corefast-pa", rounds: 339, messages: 3421},
	{name: "heavy-path-pa", rounds: 349, messages: 3960},
	{name: "leaderless-pa", rounds: 3716, messages: 11060},
	{name: "mst", rounds: 6116, messages: 45738},
	{name: "sssp", rounds: 3827, messages: 23781},
	{name: "mincut", rounds: 16300, messages: 66497},
	{name: "verify", rounds: 4599, messages: 16455},
	{name: "domset", rounds: 32, messages: 894},
	{name: "corefast-pa-powerlaw", rounds: 341, messages: 6342},
	{name: "mst-powerlaw", rounds: 4748, messages: 47509},
	{name: "domset-powerlaw", rounds: 24, messages: 3094},
}

// TestGoldenCostAccounting is the seeded determinism regression: fixed
// seed, fixed fixture, exact Rounds/Messages. It keeps engine refactors
// honest — silently changed cost accounting (the paper's two headline
// measures) fails here even if protocol outputs stay correct.
func TestGoldenCostAccounting(t *testing.T) {
	byName := make(map[string]protocol)
	for _, p := range protocols() {
		byName[p.name] = p
	}
	if len(byName) != len(goldenCosts) {
		t.Fatalf("harness has %d protocols, golden table has %d — keep them in sync",
			len(byName), len(goldenCosts))
	}
	for _, want := range goldenCosts {
		want := want
		t.Run(want.name, func(t *testing.T) {
			p, ok := byName[want.name]
			if !ok {
				t.Fatalf("no protocol %q in the harness", want.name)
			}
			ex, err := execute(p, 42, 1)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Total.Rounds != want.rounds || ex.Total.Messages != want.messages {
				t.Errorf("seed 42 cost = %d rounds / %d messages, golden %d / %d",
					ex.Total.Rounds, ex.Total.Messages, want.rounds, want.messages)
			}
		})
	}
}
