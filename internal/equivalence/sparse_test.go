package equivalence

import (
	"testing"

	"shortcutpa/internal/congest"
)

// sparse_test.go pins the sparsest fixture the harness has, the long-tail
// retry scenario, across the sequential engine, a worker pool whose shards
// own whole bitset words, and a network Reset after a full run.

// longTailSpec is the retry-tail fixture: crashing node 7 at round 60
// leaves CoreFast construction with one part that can never verify, and the
// retry ladder spins out a six-figure round count carrying barely any
// messages (~115k rounds, ~11k messages). It is the engine's worst-case
// rounds-per-message regime: the retries' Algorithm 2 verifications wait
// on the clock, and their nodes sleep through the wait (Ctx.WakeAt), so
// almost every round steps no node at all and the scheduler's per-round
// overhead is nearly all of the cost.
const longTailSpec = "crash=7@60"

// goldenLongTail pins the exact execution of the long-tail fixture at
// master seed 42: rounds, messages, the error, and the total Step count
// (ActivityStats), which must agree across engines and Reset reuse. The
// Step count is engine work, not anything a node observes, so it moves
// when nodes step less for the same execution: nodes waiting on the clock
// sleep instead of stepping every round, which is why there are far fewer
// steps than rounds.
var goldenLongTail = struct {
	rounds, messages, stepped int64
	err                       string
}{
	rounds:   114527,
	messages: 11384,
	stepped:  28696,
	err:      "core: construction exceeded budget cap 5120 with 1 parts unverified",
}

// TestGoldenLongTailScenario is the seed-42 regression anchor for the
// fixture, run sequential, at workers 4, and Reset-replayed at workers 4.
// The sparse-round count is derived from each round's stepped count, so it
// too must agree across the legs.
func TestGoldenLongTailScenario(t *testing.T) {
	byName := make(map[string]protocol)
	for _, p := range protocols() {
		byName[p.name] = p
	}
	p, ok := byName["corefast-pa"]
	if !ok {
		t.Fatal("no corefast-pa protocol in the harness")
	}
	sc, err := congest.ParseScenario(longTailSpec)
	if err != nil {
		t.Fatal(err)
	}
	type leg struct {
		label   string
		workers int
		reused  bool
	}
	legs := []leg{
		{"sequential", 1, false},
		{"workers 4", 4, false},
		{"reused workers 4", 4, true},
	}
	var firstSparse int64
	for i, l := range legs {
		net := congest.NewNetworkWorkers(p.graph(42), 42, l.workers)
		ex, err := runScenario(p, net, sc)
		if err != nil {
			t.Fatalf("%s: %v", l.label, err)
		}
		if l.reused {
			net.Reset()
			out, rerr := p.run(net)
			ex = &faultExecution{Output: out, Total: net.Total(), Phases: net.Phases()}
			if rerr != nil {
				ex.Err = rerr.Error()
			}
		}
		if ex.Total.Rounds != goldenLongTail.rounds || ex.Total.Messages != goldenLongTail.messages {
			t.Errorf("%s: cost = %d rounds / %d messages, golden %d / %d",
				l.label, ex.Total.Rounds, ex.Total.Messages, goldenLongTail.rounds, goldenLongTail.messages)
		}
		if ex.Err != goldenLongTail.err {
			t.Errorf("%s: err = %q, golden %q", l.label, ex.Err, goldenLongTail.err)
		}
		stepped, sparseRounds := net.ActivityStats()
		if stepped != goldenLongTail.stepped {
			t.Errorf("%s: stepped = %d, golden %d", l.label, stepped, goldenLongTail.stepped)
		}
		if i == 0 {
			firstSparse = sparseRounds
		}
		if sparseRounds == 0 || sparseRounds != firstSparse {
			t.Errorf("%s: %d sparse rounds, %s counted %d", l.label, sparseRounds, legs[0].label, firstSparse)
		}
	}
}
