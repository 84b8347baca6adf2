package bench

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/core"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/mincut"
	"shortcutpa/internal/mst"
	"shortcutpa/internal/verify"
)

// jobs_test.go covers the multi-run serving mode: spec parsing, the JSONL
// field-stability contract, bit-identical results at every pool width and
// cache setting (the serving-side determinism proof), and the shared-pool
// race leg that the CONGEST_WORKERS=4 CI matrix drives through the parallel
// engine.

func TestParseJobSpec(t *testing.T) {
	spec, err := ParseJobSpec("protocols=mst,domset; graphs=torus:400,random:120; seeds=1,2,5-8")
	if err != nil {
		t.Fatal(err)
	}
	want := JobSpec{
		Protocols: []string{"mst", "domset"},
		Graphs:    []GraphSpec{{Family: "torus", N: 400}, {Family: "random", N: 120}},
		Seeds:     []int64{1, 2, 5, 6, 7, 8},
	}
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("parsed %+v, want %+v", spec, want)
	}

	// protocols=all and a defaulted seeds clause expand at Expand time.
	spec, err = ParseJobSpec("protocols=all;graphs=grid:64")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(JobProtocolNames()); len(jobs) != want {
		t.Errorf("all-protocols single-graph single-seed spec expanded to %d jobs, want %d", len(jobs), want)
	}
	for i, j := range jobs {
		if j.Index != i || j.Seed != 1 {
			t.Errorf("job %d: index %d seed %d, want index %d seed 1", i, j.Index, j.Seed, i)
		}
	}

	// A scenario clause rides inside the jobs grammar using the scenario
	// grammar's '+' separator form.
	spec, err = ParseJobSpec("graphs=torus:36;scenario=crash=7@2+seed-faults=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Scenario != "crash=7@2+seed-faults=0.01" {
		t.Errorf("scenario clause parsed to %q", spec.Scenario)
	}

	for _, bad := range []string{
		"",                                  // no graphs
		"graphs=torus",                      // missing :n
		"graphs=torus:x",                    // bad size
		"graphs=torus:400;seeds=9-2",        // descending range
		"graphs=torus:400;frobs=1",          // unknown key
		"protocols",                         // not key=value
		"graphs=torus:400;scenario=crash=7", // scenario grammar error
		"graphs=torus:400;scenario=seed-faults=2", // rate out of range
		"graphs=torus:4;seeds=1-9999999999",       // a seed list that would not fit in memory
		"graphs=torus:4;seeds=0-9223372036854775807",
		"graphs=torus:4;seeds=1-1048576,7", // one seed past the cap
	} {
		if _, err := ParseJobSpec(bad); err == nil {
			t.Errorf("ParseJobSpec(%q) succeeded, want error", bad)
		}
	}
	// The cap itself parses, and Expand refuses a cross product past it.
	spec, err = ParseJobSpec("graphs=torus:4;protocols=mst;seeds=1-1048576")
	if err != nil {
		t.Fatalf("a seed list at the cap: %v", err)
	}
	if _, err := spec.Expand(); err != nil {
		t.Errorf("1 graph x 1 protocol x 2^20 seeds: %v", err)
	}
	spec.Graphs = append(spec.Graphs, spec.Graphs[0])
	if _, err := spec.Expand(); err == nil {
		t.Error("2 graphs x 1 protocol x 2^20 seeds expanded, want an error")
	}
}

// TestJobFamiliesTinySizes expands and runs every graph.Family family at
// sizes 1..8: each builder must clamp a tiny requested size to a valid
// instance of its family (a 2x2 torus, for one, does not exist), and mst
// must then run on it without error.
func TestJobFamiliesTinySizes(t *testing.T) {
	for _, fam := range graph.FamilyNames() {
		var graphs []GraphSpec
		for n := 1; n <= 8; n++ {
			graphs = append(graphs, GraphSpec{Family: fam, N: n})
		}
		spec := JobSpec{Protocols: []string{"mst"}, Graphs: graphs}
		sum, err := RunJobs(spec, func(r Result) {
			if r.Err != "" {
				t.Errorf("%s:%d: %s", r.Family, r.N, r.Err)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if sum.Runs != 8 {
			t.Errorf("%s: %d runs, want 8", fam, sum.Runs)
		}
	}
}

func TestExpandRejectsUnknownNames(t *testing.T) {
	if _, err := (JobSpec{Graphs: []GraphSpec{{Family: "moebius", N: 100}}}).Expand(); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := (JobSpec{Protocols: []string{"frob"}, Graphs: []GraphSpec{{Family: "torus", N: 100}}}).Expand(); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := (JobSpec{Graphs: []GraphSpec{{Family: "torus", N: 0}}}).Expand(); err == nil {
		t.Error("non-positive size accepted")
	}
}

// TestJobsJSONLFieldStability golden-pins the Result encoding: pabench
// -jobs streams one such line per run, and downstream consumers key on the
// exact field names and order. Changing this encoding is an output-format
// break and must update this golden deliberately.
func TestJobsJSONLFieldStability(t *testing.T) {
	line, err := json.Marshal(Result{
		Job: 3, Protocol: "mst", Family: "torus", N: 400, Seed: 7,
		Reused: true, Rounds: 123, Messages: 4567,
		Output: "00000000deadbeef", MS: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"job":3,"protocol":"mst","family":"torus","n":400,"seed":7,"reused":true,"rounds":123,"messages":4567,"output":"00000000deadbeef","ms":1.5}`
	if string(line) != golden {
		t.Errorf("JSONL encoding drifted:\n got: %s\nwant: %s", line, golden)
	}
	// scenario and err are omitempty: fault-free successful runs carry
	// neither, and a faulty run's line names its scenario.
	withErr, err := json.Marshal(Result{Scenario: "crash=7@2", Err: "budget"})
	if err != nil {
		t.Fatal(err)
	}
	const goldenErr = `{"job":0,"protocol":"","family":"","n":0,"seed":0,"reused":false,"rounds":0,"messages":0,"output":"","ms":0,"scenario":"crash=7@2","err":"budget"}`
	if string(withErr) != goldenErr {
		t.Errorf("JSONL error encoding drifted:\n got: %s\nwant: %s", withErr, goldenErr)
	}
}

// drainSpec runs a spec and returns its results in queue order with the
// wall-clock field zeroed — the deterministic projection two drains of the
// same spec must agree on bit for bit.
func drainSpec(t *testing.T, spec JobSpec) ([]Result, Summary) {
	t.Helper()
	var results []Result
	sum, err := RunJobs(spec, func(r Result) { results = append(results, r) })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs != len(results) {
		t.Fatalf("summary counts %d runs, emitted %d", sum.Runs, len(results))
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Job < results[j].Job })
	for i := range results {
		results[i].MS = 0
		if results[i].Err != "" {
			t.Fatalf("job %d (%s/%s) failed: %s", results[i].Job, results[i].Protocol, results[i].Family, results[i].Err)
		}
	}
	return results, sum
}

// smallSpec is the shared deterministic fixture: two topologies, two seeds,
// a randomized protocol (domset — per-node PRNG streams) and a multi-phase
// one (verify), so both PRNG reuse and cost accounting are exercised.
func smallSpec() JobSpec {
	return JobSpec{
		Protocols: []string{"domset", "verify"},
		Graphs:    []GraphSpec{{Family: "torus", N: 36}, {Family: "random", N: 48}},
		Seeds:     []int64{1, 2},
	}
}

// TestJobsDeterministicAcrossPoolAndCache is the serving-side bit-identity
// proof: the same spec drained sequentially without reuse (pool=1,
// cache disabled — every run on a fresh network), sequentially with full
// reuse, and concurrently (pool=4) must produce identical Results — same
// digests, same Rounds/Messages — differing only in the reused flag and
// completion order.
func TestJobsDeterministicAcrossPoolAndCache(t *testing.T) {
	base := smallSpec()
	base.PoolWorkers = 1
	base.Cache = -1
	fresh, _ := drainSpec(t, base)

	reusing := smallSpec()
	reusing.PoolWorkers = 1
	warm, sum := drainSpec(t, reusing)
	if sum.Reused == 0 {
		t.Error("sequential drain with adjacent same-topology jobs reused no network")
	}

	wide := smallSpec()
	wide.PoolWorkers = 4
	concurrent, _ := drainSpec(t, wide)

	for i := range fresh {
		fresh[i].Reused = false
		warm[i].Reused = false
		concurrent[i].Reused = false
	}
	if !reflect.DeepEqual(fresh, warm) {
		t.Errorf("reused-network drain diverged from fresh-network drain")
	}
	if !reflect.DeepEqual(fresh, concurrent) {
		t.Errorf("pool=4 drain diverged from sequential drain")
	}
}

// TestJobsCacheBound: a cache of capacity 1 across two alternating
// topologies still completes with identical results — eviction never
// affects correctness, only hit rate.
func TestJobsCacheBound(t *testing.T) {
	spec := smallSpec()
	spec.PoolWorkers = 1
	spec.Cache = 1
	bounded, _ := drainSpec(t, spec)

	ref := smallSpec()
	ref.PoolWorkers = 1
	ref.Cache = -1
	fresh, _ := drainSpec(t, ref)
	for i := range fresh {
		fresh[i].Reused = false
		bounded[i].Reused = false
	}
	if !reflect.DeepEqual(fresh, bounded) {
		t.Error("cache-bounded drain diverged from fresh drain")
	}
}

// TestJobsSharedPoolRace drives concurrent jobs on distinct networks over
// the shared pool — under `go test -race` (and the CONGEST_WORKERS=4 CI
// leg, where every job's network additionally runs the parallel engine,
// nesting engine pools inside the serving pool) this is the standing data-
// race check on the serving path.
func TestJobsSharedPoolRace(t *testing.T) {
	spec := JobSpec{
		Protocols:   []string{"domset", "corefast-pa", "sssp"},
		Graphs:      []GraphSpec{{Family: "torus", N: 36}, {Family: "grid", N: 49}, {Family: "ladder", N: 40}},
		Seeds:       []int64{1, 2},
		PoolWorkers: 4,
	}
	results, sum := drainSpec(t, spec)
	if len(results) != 18 {
		t.Fatalf("expected 18 runs, got %d", len(results))
	}
	if sum.RunsPerSec <= 0 {
		t.Errorf("summary runs/sec = %v, want > 0", sum.RunsPerSec)
	}
}

// drainFaulty runs a spec whose scenario may legitimately make runs fail,
// returning queue-ordered results with MS zeroed. Unlike drainSpec it keeps
// Err: under faults an error (a protocol starved past its budget by dead
// edges) is a valid deterministic outcome, and the bit-identity tests below
// compare it like any other field.
func drainFaulty(t *testing.T, spec JobSpec) ([]Result, Summary) {
	t.Helper()
	var results []Result
	sum, err := RunJobs(spec, func(r Result) { results = append(results, r) })
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Job < results[j].Job })
	for i := range results {
		results[i].MS = 0
	}
	return results, sum
}

// faultySpec is the shared faulty serving fixture: a scripted crash plus a
// low random fault rate, over topologies small enough that most protocols
// still terminate.
func faultySpec() JobSpec {
	return JobSpec{
		Protocols: []string{"domset", "verify", "corefast-pa"},
		Graphs:    []GraphSpec{{Family: "torus", N: 36}, {Family: "grid", N: 49}},
		Seeds:     []int64{1, 2},
		Scenario:  "crash=7@40+seed-faults=0.002",
	}
}

// TestJobsScenarioDeterministicAcrossPoolAndCache is the faulty half of the
// serving determinism proof: a drain under a fault scenario is bit-identical
// whether networks are fresh, Reset-reused, or drained concurrently —
// SetScenario after Reset rewinds the fault state, so a warm network replays
// the same crashes the fresh one saw.
func TestJobsScenarioDeterministicAcrossPoolAndCache(t *testing.T) {
	base := faultySpec()
	base.PoolWorkers = 1
	base.Cache = -1
	fresh, _ := drainFaulty(t, base)

	reusing := faultySpec()
	reusing.PoolWorkers = 1
	warm, sum := drainFaulty(t, reusing)
	if sum.Reused == 0 {
		t.Error("faulty drain with adjacent same-topology jobs reused no network")
	}

	wide := faultySpec()
	wide.PoolWorkers = 4
	concurrent, _ := drainFaulty(t, wide)

	for i := range fresh {
		fresh[i].Reused = false
		warm[i].Reused = false
		concurrent[i].Reused = false
		if fresh[i].Scenario == "" {
			t.Fatalf("job %d result does not name its scenario", i)
		}
	}
	if !reflect.DeepEqual(fresh, warm) {
		t.Errorf("faulty reused-network drain diverged from fresh-network drain")
	}
	if !reflect.DeepEqual(fresh, concurrent) {
		t.Errorf("faulty pool=4 drain diverged from sequential drain")
	}
}

// TestJobsScenarioTopologyMismatch: a scenario naming a node a small graph
// does not have fails that run (Result.Err), not the drain.
func TestJobsScenarioTopologyMismatch(t *testing.T) {
	spec := JobSpec{
		Protocols:   []string{"domset"},
		Graphs:      []GraphSpec{{Family: "torus", N: 16}},
		Scenario:    "crash=5000@1",
		PoolWorkers: 1,
	}
	results, sum := drainFaulty(t, spec)
	if len(results) != 1 || sum.Errors != 1 {
		t.Fatalf("got %d results, %d errors, want 1 and 1", len(results), sum.Errors)
	}
	if results[0].Err == "" {
		t.Error("topology-mismatched scenario did not surface in Result.Err")
	}
}

// TestJobsFaultyScenarioSharedPoolRace drives a faulty-scenario queue over
// the shared pool — the CONGEST_WORKERS=4 race CI leg runs this with every
// job's network on the parallel engine, making it the standing data-race
// check on the fault path (applyFaults runs on the coordinator between
// worker waves; this test would trip -race if that ever stopped being true).
func TestJobsFaultyScenarioSharedPoolRace(t *testing.T) {
	spec := faultySpec()
	spec.PoolWorkers = 4
	results, sum := drainFaulty(t, spec)
	if want := 12; len(results) != want {
		t.Fatalf("expected %d runs, got %d", want, len(results))
	}
	if sum.RunsPerSec <= 0 {
		t.Errorf("summary runs/sec = %v, want > 0", sum.RunsPerSec)
	}
}

// Joining reproducers: job instances whose randomized star joinings need
// 21 or more Borůvka phases, the tail of the phase count. On these n <= 64
// instances the first 2·log2(n)+9 = 21 phases join in the randomized mode
// and later ones use Algorithm 5. Each graph is built as runJob builds it
// and each answer is checked against its offline oracle.
const randPhases64 = 21

// joiningCase is one reproducer: a job family, size and seed.
type joiningCase struct {
	fam  string
	n    int
	seed int64
}

func (c joiningCase) String() string { return fmt.Sprintf("%s:%d/seed=%d", c.fam, c.n, c.seed) }

// engine builds the case's graph and engine as runJob does.
func (c joiningCase) engine(t *testing.T) *core.Engine {
	t.Helper()
	g, err := graph.Family(c.fam, c.n, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	net := congest.NewNetwork(g, c.seed)
	e, err := core.NewEngine(net, core.Randomized)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestJoiningReproducersMST(t *testing.T) {
	maxPhases := 0
	for _, c := range []joiningCase{{"powerlaw", 64, 102}, {"powerlaw", 64, 341}, {"gridstar", 60, 535}} {
		t.Run(c.String(), func(t *testing.T) {
			e := c.engine(t)
			g := e.Net.Graph()
			res, err := mst.Run(e, mst.Options{})
			if err != nil {
				t.Fatal(err)
			}
			edges := 0
			for _, in := range res.InMST {
				if in {
					edges++
				}
			}
			if res.Weight != g.MSTWeight() || edges != g.N()-1 {
				t.Errorf("weight %d with %d edges, want %d with %d", res.Weight, edges, g.MSTWeight(), g.N()-1)
			}
			maxPhases = max(maxPhases, res.Phases)
		})
	}
	if maxPhases <= randPhases64 {
		t.Errorf("at most %d phases: the deterministic tail past phase %d went unexercised", maxPhases, randPhases64)
	}
}

func TestJoiningReproducersVerify(t *testing.T) {
	for _, c := range []joiningCase{{"torus", 64, 428}, {"gridstar", 60, 173}} {
		t.Run(c.String(), func(t *testing.T) {
			e := c.engine(t)
			g := e.Net.Graph()
			keep := make([]bool, g.M()) // the verify job's subgraph
			for i := range keep {
				keep[i] = i%3 != 0
			}
			lab, err := verify.ComponentLabels(e, verify.SubgraphFromEdges(e, keep))
			if err != nil {
				t.Fatal(err)
			}
			comp, _ := g.SubgraphComponents(keep)
			byComp, byLabel := map[int]int64{}, map[int64]int{}
			for v, l := range lab.Label {
				if want, ok := byComp[comp[v]]; ok && want != l {
					t.Fatalf("component %d split across labels %d and %d", comp[v], want, l)
				}
				if want, ok := byLabel[l]; ok && want != comp[v] {
					t.Fatalf("label %d spans components %d and %d", l, want, comp[v])
				}
				byComp[comp[v]], byLabel[l] = l, comp[v]
			}
		})
	}
}

func TestJoiningReproducerMincut(t *testing.T) {
	e := joiningCase{"torus", 64, 13002}.engine(t)
	res, err := mincut.Approx(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	if exact, _ := e.Net.Graph().StoerWagnerMinCut(); res.Weight < exact {
		t.Errorf("cut weight %d below the exact minimum cut %d", res.Weight, exact)
	}
}

// TestFaultyHeavyPathPAHitsIterationCap pins how deterministic PA ends on
// the grid-star under a crash plus random faults: on every seed, Algorithm
// 6 stops at its 2·log2ceil(n)+8 = 22 iteration cap with the documented
// error. The whole run stays below one phase's round cap, so the run ends
// on the iteration bound, not by livelocking into the round cap.
func TestFaultyHeavyPathPAHitsIterationCap(t *testing.T) {
	g, err := graph.Family("gridstar", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	roundCap := congest.NewNetwork(g, 1).RoundCap()
	const want = "core: sub-part division: subpart: Algorithm 6 did not converge in 22 iterations"
	spec := JobSpec{
		Protocols: []string{"heavy-path-pa"},
		Graphs:    []GraphSpec{{Family: "gridstar", N: 100}},
		Seeds:     []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		Scenario:  "crash=7@40+seed-faults=0.002",
	}
	sum, err := RunJobs(spec, func(r Result) {
		if r.Err != want {
			t.Errorf("seed %d: err %q, want %q", r.Seed, r.Err, want)
		}
		if r.Rounds <= 0 || r.Rounds >= roundCap {
			t.Errorf("seed %d: %d rounds, want within (0, %d)", r.Seed, r.Rounds, roundCap)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs != 12 || sum.Errors != 12 {
		t.Errorf("%d runs with %d errors, want 12 and 12", sum.Runs, sum.Errors)
	}
}
