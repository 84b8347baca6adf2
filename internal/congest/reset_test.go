package congest

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"shortcutpa/internal/graph"
)

// reset_test.go covers the network-reuse contract behind multi-run serving:
// Reset restores a constructed network to its as-new protocol-visible state
// (PRNG streams, metrics, phase history), the Reset mid-phase guard, and
// the exported RunPool job machinery.

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
// check with the reused network on the parallel engine: Reset keeps the
// network's worker count, and the reused run stays identical to a
// sequential fresh run.
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

// TestSetWorkersClampsNegative: a worker count < 1 is clamped to the
// sequential engine, per the documented contract — the job runner passes
// configured ints through. The clamped network must run and match a
// workers=1 network bit for bit.
func TestSetWorkersClampsNegative(t *testing.T) {
	g := graph.Path(4)
	net := NewNetworkWorkers(g, 1, -3)
	if _, err := net.RunNodes("clamp/run", NodeProcFunc(func(ctx *Ctx, v int) bool { return false }), 4); err != nil {
		t.Fatal(err)
	}
	if got := net.rs.workers; got != 1 {
		t.Errorf("phase ran with %d workers after NewNetworkWorkers(-3), want 1 (sequential)", got)
	}
	gotDigest, gotCost := randomizedRun(t, NewNetworkWorkers(g, 1, -3))
	wantDigest, wantCost := randomizedRun(t, NewNetworkWorkers(g, 1, 1))
	if gotCost != wantCost {
		t.Fatalf("workers -3 cost %+v, workers 1 %+v", gotCost, wantCost)
	}
	for v := range wantDigest {
		if gotDigest[v] != wantDigest[v] {
			t.Fatalf("workers -3 node %d digest %d, workers 1 %d", v, gotDigest[v], wantDigest[v])
		}
	}
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

// releaseProc is a NodeProc with state worth pinning: a network that kept
// it reachable after its phase would keep the ballast alive too.
type releaseProc struct {
	ballast []byte
	exit    string // "return", "budget" or "panic"
}

func (p *releaseProc) Step(ctx *Ctx, v int) bool {
	switch {
	case p.exit == "panic" && ctx.Round() == 1:
		panic("release: protocol panic")
	case p.exit == "budget":
		return true
	}
	return ctx.Round() < 1
}

// runReleaseProc runs one phase of a fresh releaseProc on net and returns a
// channel that its cleanup closes once the proc is unreachable. The proc is
// local to this call, so nothing but the network can keep it alive.
func runReleaseProc(t *testing.T, net *Network, exit string) <-chan struct{} {
	t.Helper()
	p := &releaseProc{ballast: make([]byte, 1<<16), exit: exit}
	done := make(chan struct{})
	runtime.AddCleanup(p, func(ch chan struct{}) { close(ch) }, done)
	func() {
		defer func() {
			if r := recover(); (r != nil) != (exit == "panic") {
				t.Fatalf("exit %s: recovered %v", exit, r)
			}
		}()
		_, err := net.RunNodes("release/"+exit, p, 4)
		var budget *BudgetExceededError
		if (exit == "budget") != errors.As(err, &budget) {
			t.Fatalf("exit %s: err = %v", exit, err)
		}
	}()
	return done
}

// TestFinishedPhaseProcCollectable: a network keeps counters and recycled
// engine buffers across phases, never a finished phase's NodeProc. On every
// exit path (normal return, budget exceeded, protocol panic) and on both
// engines, the proc becomes unreachable while the network stays alive, so
// a warm network does not pin the protocol state of its last phase.
func TestFinishedPhaseProcCollectable(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, exit := range []string{"return", "budget", "panic"} {
			t.Run(fmt.Sprintf("workers=%d/exit=%s", workers, exit), func(t *testing.T) {
				net := NewNetworkWorkers(graph.Torus(8, 8), 1, workers)
				done := runReleaseProc(t, net, exit)
				deadline := time.After(5 * time.Second)
				for collected := false; !collected; {
					runtime.GC()
					select {
					case <-done:
						collected = true
					case <-deadline:
						t.Fatal("the finished phase's NodeProc is still reachable from its network")
					case <-time.After(10 * time.Millisecond):
					}
				}
				runtime.KeepAlive(net)
			})
		}
	}
}
