package congest

import (
	"strings"
	"testing"

	"shortcutpa/internal/graph"
)

// reset_test.go covers the network-reuse contract behind multi-run serving:
// Reset restores a constructed network to its as-new protocol-visible state
// (PRNG streams, metrics, phase history), the SetWorkers/Reset mid-phase
// guards, and the exported RunPool job machinery.

// randomizedRun executes the randomized gossip proc on net and returns the
// per-node digest transcript plus the phase cost. The proc draws from every
// node's PRNG each round, so any mid-stream PRNG state shows up in both the
// digest (message contents route through Rand-chosen ports) and the costs.
func randomizedRun(t *testing.T, net *Network) ([]int64, Metrics) {
	t.Helper()
	n := net.N()
	minHeard := make([]int64, n)
	digest := make([]int64, n)
	for v := 0; v < n; v++ {
		minHeard[v] = net.ID(v)
	}
	cost, err := net.RunNodes("reset/gossip", NodeProcFunc(func(ctx *Ctx, v int) bool {
		return gossipStep(ctx, v, minHeard, digest)
	}), 64)
	if err != nil {
		t.Fatal(err)
	}
	return digest, cost
}

// TestResetRestartsPRNGStreams is the determinism bugfix regression: a
// second randomized run on a Reset network must be bit-identical to the
// same run on a freshly constructed network, because Reset drops the lazily
// created per-node PRNGs and their streams restart from the (seed, v)
// origin. Without the drop, the reused network draws mid-stream and
// diverges — the test first proves that divergence is real (so the fixture
// has teeth), then proves Reset removes it.
func TestResetRestartsPRNGStreams(t *testing.T) {
	const seed = 77
	g := graph.Torus(5, 5)

	fresh, freshCost := randomizedRun(t, NewNetwork(g, seed))

	// Same network, no Reset: the PRNGs continue mid-stream, so the second
	// run must diverge from the fresh execution (if it did not, the fixture
	// would be too weak to detect the bug at all).
	dirty := NewNetwork(g, seed)
	randomizedRun(t, dirty)
	diverged, _ := randomizedRun(t, dirty)
	same := true
	for v := range fresh {
		if fresh[v] != diverged[v] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("fixture too weak: second run without Reset did not diverge from a fresh run")
	}

	// Same network, Reset between runs: bit-identical to fresh. Node 0 also
	// draws past the closed-form range first (more than rngTap draws), so
	// its source has switched to the math/rand fallback — Reset must drop
	// that too.
	reused := NewNetwork(g, seed)
	randomizedRun(t, reused)
	const deep = rngTap + 100
	for k := 0; k < deep; k++ {
		reused.rng(0).Uint64()
	}
	reused.Reset()
	got, gotCost := randomizedRun(t, reused)
	if gotCost != freshCost {
		t.Errorf("reused cost %+v, fresh %+v", gotCost, freshCost)
	}
	for v := range fresh {
		if got[v] != fresh[v] {
			t.Fatalf("node %d digest diverged on the Reset network: %d != fresh %d", v, got[v], fresh[v])
		}
	}

	// After the gossip run, node 0's stream continues exactly where a
	// fresh network's does, across the fallback boundary again.
	ref := NewNetwork(g, seed)
	randomizedRun(t, ref)
	for k := 0; k < deep; k++ {
		if a, b := reused.rng(0).Uint64(), ref.rng(0).Uint64(); a != b {
			t.Fatalf("node 0 draw %d after Reset = %#x, fresh network %#x", k, a, b)
		}
	}
}

// TestResetReuseIdenticalOnParallelEngine runs the same reuse bit-identity
// check with the reused network on the parallel engine: Reset composes with
// SetWorkers, and the reused run stays identical to a sequential fresh run.
func TestResetReuseIdenticalOnParallelEngine(t *testing.T) {
	const seed = 78
	g := graph.Torus(5, 5)
	fresh, freshCost := randomizedRun(t, NewNetwork(g, seed))

	reused := NewNetworkWorkers(g, seed, 4)
	randomizedRun(t, reused)
	reused.Reset()
	got, gotCost := randomizedRun(t, reused)
	if gotCost != freshCost {
		t.Errorf("reused parallel cost %+v, fresh sequential %+v", gotCost, freshCost)
	}
	for v := range fresh {
		if got[v] != fresh[v] {
			t.Fatalf("node %d digest diverged (parallel reused vs sequential fresh)", v)
		}
	}
}

// TestResetClearsMetricsAndPhaseHistory: Reset zeroes the totals and drops
// the per-phase history, and a serve-many loop keeps the history bounded at
// one run's phases instead of growing across runs.
func TestResetClearsMetricsAndPhaseHistory(t *testing.T) {
	net := NewNetwork(graph.Torus(4, 4), 5)
	randomizedRun(t, net)
	if net.Total() == (Metrics{}) || len(net.Phases()) == 0 {
		t.Fatal("run recorded no cost — fixture broken")
	}
	net.Reset()
	if net.Total() != (Metrics{}) {
		t.Errorf("Total after Reset = %+v, want zero", net.Total())
	}
	if got := net.Phases(); len(got) != 0 {
		t.Errorf("Phases after Reset has %d entries, want 0", len(got))
	}
	// Served-run loop: the history must stay at exactly the per-run phase
	// count (1 here), not accumulate one entry per served run.
	for i := 0; i < 40; i++ {
		net.Reset()
		randomizedRun(t, net)
		if got := len(net.Phases()); got != 1 {
			t.Fatalf("after served run %d: phase history has %d entries, want 1", i, got)
		}
	}
}

// TestSetWorkersClampsNegative: k < 0 is clamped to 0 (sequential), per the
// documented contract — the job runner passes configured ints through.
func TestSetWorkersClampsNegative(t *testing.T) {
	net := NewNetwork(graph.Path(4), 1)
	net.SetWorkers(-3)
	if got := net.Workers(); got != 0 {
		t.Errorf("Workers() = %d after SetWorkers(-3), want 0", got)
	}
	net.SetWorkers(4)
	if got := net.Workers(); got != 4 {
		t.Errorf("Workers() = %d after SetWorkers(4), want 4", got)
	}
	// The clamped network must still run (sequential engine).
	if _, err := net.RunNodes("clamp/run", NodeProcFunc(func(ctx *Ctx, v int) bool { return false }), 4); err != nil {
		t.Fatal(err)
	}
}

// TestSetWorkersMidPhasePanics: the worker count is latched at phase start;
// changing it from inside a Step is a protocol bug and panics.
func TestSetWorkersMidPhasePanics(t *testing.T) {
	net := NewNetwork(graph.Path(4), 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("SetWorkers mid-phase did not panic")
		}
		// The exact message is part of the contract: serving harnesses match
		// on it to distinguish a mid-phase misuse from a protocol panic.
		const want = "congest: SetWorkers called while a phase is running"
		if Sprint(r) != want {
			t.Fatalf("panic = %q, want %q", Sprint(r), want)
		}
	}()
	net.RunNodes("midphase/setworkers", NodeProcFunc(func(ctx *Ctx, v int) bool {
		net.SetWorkers(2)
		return false
	}), 4)
}

// TestResetMidPhasePanics: Reset while a phase is running is equally a bug.
func TestResetMidPhasePanics(t *testing.T) {
	net := NewNetwork(graph.Path(4), 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Reset mid-phase did not panic")
		}
		const want = "congest: Reset called while a phase is running"
		if Sprint(r) != want {
			t.Fatalf("panic = %q, want %q", Sprint(r), want)
		}
	}()
	net.RunNodes("midphase/reset", NodeProcFunc(func(ctx *Ctx, v int) bool {
		net.Reset()
		return false
	}), 4)
}

// TestNestedRunRejected: starting a phase while another phase is running on
// the same network is reported as an error, not silent corruption.
func TestNestedRunRejected(t *testing.T) {
	net := NewNetwork(graph.Path(4), 1)
	var nestedErr error
	if _, err := net.RunNodes("outer", NodeProcFunc(func(ctx *Ctx, v int) bool {
		if v == 0 && nestedErr == nil {
			_, nestedErr = net.RunNodes("inner", NodeProcFunc(func(ctx *Ctx, v int) bool { return false }), 4)
			if nestedErr == nil {
				nestedErr = errNoNestedFailure
			}
		}
		return false
	}), 4); err != nil {
		t.Fatalf("outer phase failed: %v", err)
	}
	if nestedErr == errNoNestedFailure {
		t.Fatal("nested Run on the same network was not rejected")
	}
	if nestedErr == nil || !strings.Contains(nestedErr.Error(), "another phase") {
		t.Fatalf("nested Run error = %v, want the running-phase rejection", nestedErr)
	}
}

var errNoNestedFailure = &BudgetExceededError{Phase: "sentinel"}

// Sprint stringifies a recovered panic value for substring checks.
func Sprint(r any) string {
	if s, ok := r.(string); ok {
		return s
	}
	if e, ok := r.(error); ok {
		return e.Error()
	}
	return ""
}

// TestRunPool: every worker index runs exactly once, the inline k<=1 path
// works, and a worker panic is re-raised on the caller.
func TestRunPool(t *testing.T) {
	for _, k := range []int{1, 2, 4, 7} {
		ran := make([]int, max(k, 1))
		RunPool(k, func(w int) { ran[w]++ })
		for w, c := range ran {
			if c != 1 {
				t.Errorf("k=%d: worker %d ran %d times, want 1", k, w, c)
			}
		}
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("RunPool did not re-raise the worker panic")
		}
	}()
	RunPool(3, func(w int) {
		if w == 1 {
			panic("boom")
		}
	})
}
