package equivalence

import (
	"reflect"
	"testing"

	"shortcutpa/internal/congest"
)

// reuse_test.go is the network-reuse leg of the equivalence harness: the
// multi-run serving mode (internal/bench jobs) runs protocols on networks
// recycled through congest.Network.Reset() instead of rebuilt, and that is
// only sound if a Reset-reused network is bit-identical — outputs, total
// cost, per-phase log — to a freshly constructed one. Before Reset dropped
// the lazily created per-node PRNGs, a reused network silently drew from
// mid-stream state and every randomized protocol here diverged.

// executeReused runs the protocol twice on one network with a Reset in
// between and captures the second execution — the reused run the serving
// mode's warm-network cache produces.
func executeReused(p protocol, seed int64, workers int) (*execution, error) {
	net := congest.NewNetworkWorkers(p.graph(seed), seed, workers)
	if _, err := p.run(net); err != nil {
		return nil, err
	}
	net.Reset()
	out, err := p.run(net)
	if err != nil {
		return nil, err
	}
	return &execution{Output: out, Total: net.Total(), Phases: net.Phases()}, nil
}

// TestResetReusedNetworkMatchesFresh: every protocol fixture, rerun on a
// Reset-reused network, must reproduce the fresh-network execution exactly —
// on the sequential engine and on the parallel one.
func TestResetReusedNetworkMatchesFresh(t *testing.T) {
	seeds := []int64{1, 2, 3}
	workerCounts := []int{1, 4}
	for _, p := range protocols() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for _, seed := range seeds {
				want, err := execute(p, seed, 1)
				if err != nil {
					t.Fatalf("seed %d fresh: %v", seed, err)
				}
				for _, w := range workerCounts {
					got, err := executeReused(p, seed, w)
					if err != nil {
						t.Fatalf("seed %d workers %d reused: %v", seed, w, err)
					}
					if got.Output != want.Output {
						t.Errorf("seed %d workers %d: reused-network output diverged\nreused: %s\nfresh:  %s",
							seed, w, clip(got.Output), clip(want.Output))
					}
					if got.Total != want.Total {
						t.Errorf("seed %d workers %d: reused total cost %+v, fresh %+v",
							seed, w, got.Total, want.Total)
					}
					if !reflect.DeepEqual(got.Phases, want.Phases) {
						t.Errorf("seed %d workers %d: reused per-phase cost log diverged", seed, w)
					}
				}
			}
		})
	}
}

// TestGoldenCostsOnReusedNetwork anchors the reuse contract to the golden
// fixtures themselves: the second run on a Reset-reused network at the
// golden seed must hit the exact pinned Rounds/Messages — the same numbers
// TestGoldenCostAccounting pins for fresh networks.
func TestGoldenCostsOnReusedNetwork(t *testing.T) {
	byName := make(map[string]protocol)
	for _, p := range protocols() {
		byName[p.name] = p
	}
	for _, want := range goldenCosts {
		want := want
		t.Run(want.name, func(t *testing.T) {
			p, ok := byName[want.name]
			if !ok {
				t.Fatalf("no protocol %q in the harness", want.name)
			}
			ex, err := executeReused(p, 42, 1)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Total.Rounds != want.rounds || ex.Total.Messages != want.messages {
				t.Errorf("reused-network seed 42 cost = %d rounds / %d messages, golden %d / %d",
					ex.Total.Rounds, ex.Total.Messages, want.rounds, want.messages)
			}
		})
	}
}
