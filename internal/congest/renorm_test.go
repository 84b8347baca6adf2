package congest

import (
	"testing"

	"shortcutpa/internal/graph"
)

// renorm_test.go covers the stamp-epoch renormalization pass: the engine's
// buffer stamps are int32 offsets from Network.epoch, and when the
// epoch-relative round reaches stampRenormThreshold the coordinator rebases
// every live stamp back toward clockBase (renormStamps). The threshold is a
// package variable precisely so this test can force the boundary on a tiny
// network instead of simulating 2^31 rounds.

// renormGossip runs a fixed multi-phase mixed-primitive protocol and
// returns everything observable about it: final per-node states (the
// minimum heard, then a fold of every CanSend probe), total metrics, and
// the network's stamp epoch afterward. Broadcast and Send alternate per
// node, so the slot stamps, the broadcast stamps and the last-Send stamps
// all straddle each renormalization.
func renormGossip(t *testing.T, workers int) ([]int64, Metrics, int64) {
	t.Helper()
	g := graph.Torus(4, 4)
	net := NewNetworkWorkers(g, 11, workers)
	n := g.N()
	minHeard := make([]int64, 2*n)
	for v := 0; v < n; v++ {
		minHeard[v] = net.ID(v)
	}
	// Three phases so renormalization also has to survive phase boundaries
	// (the clock skips +2 between phases and stale stamps must stay stale).
	for phase := 0; phase < 3; phase++ {
		const rounds = 40
		proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
			ctx.ForRecv(func(in Incoming) {
				if in.Port == 0 {
					in.Msg.A--
				}
				minHeard[v] = min(minHeard[v], in.Msg.A)
			})
			if ctx.Round() < rounds {
				// On odd rounds only half the nodes broadcast and the
				// other half Send on two ports, so partially stale slot and
				// broadcast stamps exist on both sides of a
				// renormalization. Every fourth node broadcasts only in
				// the first rounds of the first phase, in rounds of both
				// parities: its stamps go stale in both broadcast buffers
				// and must stay stale through every later
				// renormalization.
				m := Message{A: minHeard[v] + int64(phase)}
				quitter := v%4 == 3
				if quitter && (phase > 0 || ctx.Round() >= 6) {
					ctx.Send(0, m)
					ctx.Send(2, m)
				} else if quitter || ctx.Round()%2 == 0 || v%2 == 0 {
					ctx.Broadcast(m)
				} else {
					ctx.Send(0, m)
					ctx.Send(2, m)
				}
				minHeard[n+v] = minHeard[n+v]*3 + b2i(ctx.CanSend(1)) + 2*b2i(ctx.CanSend(2))
				return true
			}
			return false
		})
		if _, err := net.RunNodes("renorm", proc, rounds+4); err != nil {
			t.Fatal(err)
		}
	}
	return minHeard, net.Total(), net.epoch
}

// TestStampEpochRenormalization forces the int32 stamp boundary every ~48
// epoch-relative rounds and asserts the run is bit-identical to one that
// never renormalizes, on both engines. This is the whole correctness claim
// of the int32 narrowing: renormStamps preserves every occupancy test, so a
// protocol cannot tell whether (or how often) the pass ran.
func TestStampEpochRenormalization(t *testing.T) {
	defaultThreshold := stampRenormThreshold
	wantState, wantCost, epoch0 := renormGossip(t, 1)
	if epoch0 != 0 {
		t.Fatalf("default threshold run advanced the epoch to %d; the control is broken", epoch0)
	}

	stampRenormThreshold = 48
	defer func() { stampRenormThreshold = defaultThreshold }()
	for _, workers := range []int{1, 4} {
		state, cost, epoch := renormGossip(t, workers)
		if epoch == 0 {
			t.Fatalf("workers=%d: threshold 48 never triggered renormalization (epoch still 0)", workers)
		}
		if cost != wantCost {
			t.Fatalf("workers=%d: cost %+v with renormalization, %+v without", workers, cost, wantCost)
		}
		for v := range state {
			if state[v] != wantState[v] {
				t.Fatalf("workers=%d: node %d state %d with renormalization, %d without", workers, v, state[v], wantState[v])
			}
		}
	}
}

// TestRenormClampsStaleStamps unit-tests rebaseStamps directly: live stamps
// shift by delta, already-stale stamps (including the permanent 0 sentinel)
// clamp to 0 and can never be resurrected into a future occupancy match.
func TestRenormClampsStaleStamps(t *testing.T) {
	delta := int32(100)
	in := []int32{0, 1, 50, 100, 101, 150}
	want := []int32{0, 0, 0, 0, 1, 50}
	got := append([]int32(nil), in...)
	rebaseStamps(got, delta)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rebaseStamps(%d, delta=%d) = %d, want %d", in[i], delta, got[i], want[i])
		}
	}
}
