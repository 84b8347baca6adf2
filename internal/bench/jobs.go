package bench

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/core"
	"shortcutpa/internal/domset"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/mincut"
	"shortcutpa/internal/mst"
	"shortcutpa/internal/part"
	"shortcutpa/internal/sssp"
	"shortcutpa/internal/verify"
)

// jobs.go is the multi-run serving mode (cmd/pabench -jobs, and the library
// face a future paserve would mount): a JobSpec expands protocols × graph
// families × sizes × seeds into a work queue drained by one shared worker
// pool — the same job-generic pool the engine's round waves run on
// (congest.RunPool) — streaming one JSON-serializable Result per completed
// run as it finishes. Jobs on the same topology reuse a constructed
// congest.Network through Network.Reset() instead of rebuilding (the
// network's slot geometry and ~O(n+2m) engine buffers are topology- and
// seed-determined, so Reset is O(n)); an LRU of warm networks keyed by
// (family, n, seed) bounds the memory that reuse can pin. The reuse is
// bit-exact: internal/equivalence proves a Reset-reused network produces
// the same outputs and Rounds/Messages as a freshly constructed one.
//
// The serving-side measure is runs/sec at saturation (BenchmarkJobThroughput,
// snapshotted into BENCH_<pr>.json by make bench), not ms/run: the north
// star is many concurrent simulations, not one giant one.

// GraphSpec names one topology of a job spec: a generator family and a
// target node count. The builder may round n to the family's natural shape
// (a torus needs a square side); Result.N reports the actual count.
type GraphSpec struct {
	Family string
	N      int
}

// JobSpec is a multi-run serving request: the cross product of Protocols ×
// Graphs × Seeds becomes the work queue. Zero values select defaults —
// all protocols, seed 1, PoolWorkers = GOMAXPROCS, a warm-network cache of
// defaultJobCache entries.
type JobSpec struct {
	Protocols []string
	Graphs    []GraphSpec
	Seeds     []int64

	// PoolWorkers is how many queue workers drain jobs concurrently
	// (<= 0: GOMAXPROCS). Each worker runs whole jobs; engine parallelism
	// within one simulation is NetWorkers.
	PoolWorkers int
	// NetWorkers is the congest engine parallelism per simulation
	// (0: the CONGEST_WORKERS environment default). Results are
	// bit-identical at any setting.
	NetWorkers int
	// Cache is the warm-network LRU capacity (< 0: disable reuse;
	// 0: defaultJobCache).
	Cache int

	// Scenario is a fault scenario applied to every run, in the
	// congest.ParseScenario grammar (empty: fault-free). The scenario is
	// attached after each run's Reset, so a reused network replays the
	// identical fault sequence a fresh one would — faults change the
	// simulated execution, never the serving determinism.
	Scenario string
}

// defaultJobCache bounds how many warm networks the runner keeps between
// jobs when the spec does not say: enough for a seeds-major sweep to reuse
// every topology of a modest graphs list, small enough that n=10^5-scale
// networks do not pin gigabytes.
const defaultJobCache = 8

// Job is one expanded work item.
type Job struct {
	Index    int
	Protocol string
	Family   string
	N        int
	Seed     int64
}

// Result is one completed run, emitted as a single JSON line by pabench
// -jobs. The field set and order are a stable output contract
// (TestJobsJSONLFieldStability golden-pins the encoding): downstream
// consumers key on these names.
type Result struct {
	Job      int     `json:"job"`
	Protocol string  `json:"protocol"`
	Family   string  `json:"family"`
	N        int     `json:"n"`
	Seed     int64   `json:"seed"`
	Reused   bool    `json:"reused"`
	Rounds   int64   `json:"rounds"`
	Messages int64   `json:"messages"`
	Output   string  `json:"output"`
	MS       float64 `json:"ms"`
	Scenario string  `json:"scenario,omitempty"`
	Err      string  `json:"err,omitempty"`
}

// Summary aggregates one RunJobs drain.
type Summary struct {
	Runs       int
	Errors     int
	Reused     int
	Elapsed    time.Duration
	RunsPerSec float64
}

// jobProtocols maps protocol names to runners over a prepared network. The
// runners mirror the equivalence harness's fixtures — engine setup included,
// so a job's Rounds/Messages account the whole protocol, exactly as the
// golden cost fixtures do.
var jobProtocols = map[string]func(net *congest.Network) (string, error){
	"corefast-pa": func(net *congest.Network) (string, error) {
		return runPA(net, core.Randomized, congest.MinPair)
	},
	"heavy-path-pa": func(net *congest.Network) (string, error) {
		return runPA(net, core.Deterministic, congest.MaxPair)
	},
	"leaderless-pa": func(net *congest.Network) (string, error) {
		g := net.Graph()
		e, err := core.NewEngine(net, core.Randomized)
		if err != nil {
			return "", err
		}
		in, err := part.FromDense(net, graph.DeepPartition(g, 4*g.Eccentricity(0)))
		if err != nil {
			return "", err
		}
		res, err := e.SolveLeaderless(in, jobVals(net), congest.SumPair)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v", res.Values), nil
	},
	"mst": func(net *congest.Network) (string, error) {
		e, err := core.NewEngine(net, core.Randomized)
		if err != nil {
			return "", err
		}
		res, err := mst.Run(e, mst.Options{})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v w=%d phases=%d", res.InMST, res.Weight, res.Phases), nil
	},
	"sssp": func(net *congest.Network) (string, error) {
		e, err := core.NewEngine(net, core.Randomized)
		if err != nil {
			return "", err
		}
		approx, err := sssp.Approx(e, 0, 0.5)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v meta=%d", approx.Dist, approx.MetaRounds), nil
	},
	"mincut": func(net *congest.Network) (string, error) {
		e, err := core.NewEngine(net, core.Randomized)
		if err != nil {
			return "", err
		}
		res, err := mincut.Approx(e, 3)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v w=%d tree=%d", res.Side, res.Weight, res.BestTree), nil
	},
	"verify": func(net *congest.Network) (string, error) {
		g := net.Graph()
		e, err := core.NewEngine(net, core.Randomized)
		if err != nil {
			return "", err
		}
		keep := make([]bool, g.M())
		for i := range keep {
			keep[i] = i%3 != 0
		}
		h := verify.SubgraphFromEdges(e, keep)
		lab, err := verify.ComponentLabels(e, h)
		if err != nil {
			return "", err
		}
		conn, err := verify.Connected(e, lab)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v conn=%v", lab.Label, conn), nil
	},
	"domset": func(net *congest.Network) (string, error) {
		e, err := core.NewEngine(net, core.Randomized)
		if err != nil {
			return "", err
		}
		res, err := domset.KDominatingSet(e, 3)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v size=%d", res.IsCenter, res.Size), nil
	},
}

// runPA is the shared PA fixture: engine + deep partition + leaders + Solve.
func runPA(net *congest.Network, mode core.Mode, f congest.Combine) (string, error) {
	g := net.Graph()
	e, err := core.NewEngine(net, mode)
	if err != nil {
		return "", err
	}
	in, err := part.FromDense(net, graph.DeepPartition(g, 6*g.Eccentricity(0)))
	if err != nil {
		return "", err
	}
	if err := part.ElectLeaders(net, in, net.RoundCap()); err != nil {
		return "", err
	}
	res, err := e.Solve(in, jobVals(net), f)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%v", res.Values), nil
}

// jobVals is the canonical PA input: each node contributes (ID, index).
func jobVals(net *congest.Network) []congest.Val {
	vals := make([]congest.Val, net.N())
	for v := range vals {
		vals[v] = congest.Val{A: net.ID(v), B: int64(v)}
	}
	return vals
}

// jobFamilies maps family names to graph builders. Builders are pure in
// (n, seed) — the property the warm-network cache key relies on.
var jobFamilies = map[string]func(n int, seed int64) *graph.Graph{
	"torus": func(n int, _ int64) *graph.Graph {
		side := max(3, squareSide(n)) // a torus needs rows, cols >= 3
		return graph.Torus(side, side)
	},
	"grid": func(n int, _ int64) *graph.Graph {
		side := squareSide(n)
		return graph.Grid(side, side)
	},
	"ladder": func(n int, _ int64) *graph.Graph {
		return graph.Ladder(max(n/2, 2))
	},
	"gridstar": func(n int, _ int64) *graph.Graph {
		rows := max(2, squareSide(n/6))
		return graph.GridStar(rows, 6*rows)
	},
	"random": func(n int, seed int64) *graph.Graph {
		n = max(n, 8)
		rng := rand.New(rand.NewSource(seed))
		return graph.RandomizeWeights(graph.RandomConnected(n, 3.0/float64(n), rng), 100, rng)
	},
	// The skewed families: hub nodes carrying a constant fraction of all
	// edges, the regime the edge-balanced shard boundaries exist for.
	"star": func(n int, _ int64) *graph.Graph {
		return graph.Star(max(n, 2))
	},
	"powerlaw": func(n int, seed int64) *graph.Graph {
		n = max(n, 8)
		rng := rand.New(rand.NewSource(seed))
		return graph.RandomizeWeights(graph.PowerLaw(n, 4, 2.5, rng), 100, rng)
	},
	"prefattach": func(n int, seed int64) *graph.Graph {
		n = max(n, 8)
		rng := rand.New(rand.NewSource(seed))
		return graph.RandomizeWeights(graph.PrefAttach(n, 3, rng), 100, rng)
	},
}

// squareSide rounds a target node count to the nearest square's side, >= 2.
func squareSide(n int) int {
	return max(2, int(math.Round(math.Sqrt(float64(max(n, 4))))))
}

// JobProtocolNames returns the protocol registry's names, sorted.
func JobProtocolNames() []string { return sortedKeys(jobProtocols) }

// JobFamilyNames returns the graph family registry's names, sorted.
func JobFamilyNames() []string { return sortedKeys(jobFamilies) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Expand flattens the spec's cross product into the work queue, validating
// every name. Jobs are ordered topology-major — all protocols of one
// (family, n, seed) are adjacent — so a sequential drain reuses each warm
// network maximally; concurrent workers still reuse whenever a warm network
// is checked in before the next same-topology job starts.
func (s JobSpec) Expand() ([]Job, error) {
	protocols := s.Protocols
	if len(protocols) == 0 {
		protocols = JobProtocolNames()
	}
	for _, p := range protocols {
		if _, ok := jobProtocols[p]; !ok {
			return nil, fmt.Errorf("unknown protocol %q (have: %s)", p, strings.Join(JobProtocolNames(), ", "))
		}
	}
	if len(s.Graphs) == 0 {
		return nil, fmt.Errorf("job spec has no graphs")
	}
	for _, g := range s.Graphs {
		if _, ok := jobFamilies[g.Family]; !ok {
			return nil, fmt.Errorf("unknown graph family %q (have: %s)", g.Family, strings.Join(JobFamilyNames(), ", "))
		}
		if g.N <= 0 {
			return nil, fmt.Errorf("graph family %q has non-positive size %d", g.Family, g.N)
		}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	if n := len(s.Graphs) * len(seeds) * len(protocols); n > maxJobs {
		return nil, fmt.Errorf("job spec expands to %d jobs, more than %d", n, maxJobs)
	}
	jobs := make([]Job, 0, len(s.Graphs)*len(seeds)*len(protocols))
	for _, g := range s.Graphs {
		for _, seed := range seeds {
			for _, p := range protocols {
				jobs = append(jobs, Job{Index: len(jobs), Protocol: p, Family: g.Family, N: g.N, Seed: seed})
			}
		}
	}
	return jobs, nil
}

// netKey identifies a reusable warm network: the builder is pure in
// (family, n, seed), and NewNetwork's IDs and PRNG origins are functions of
// the same seed, so equal keys mean bit-identical as-new networks.
type netKey struct {
	family string
	n      int
	seed   int64
}

// netCache is the warm-network LRU. A checked-out network leaves the cache
// entirely — exclusivity is ownership, not locking — and returns at
// check-in, evicting the least-recently-used entry when over capacity. Two
// workers racing on one key simply means the loser builds fresh (and the
// newer network replaces the older at check-in); correctness never depends
// on a hit.
type netCache struct {
	mu   sync.Mutex
	cap  int
	tick int64
	warm map[netKey]warmNet
}

type warmNet struct {
	net   *congest.Network
	stamp int64
}

func newNetCache(capacity int) *netCache {
	return &netCache{cap: capacity, warm: make(map[netKey]warmNet)}
}

// checkout removes and returns the warm network for key, or nil on a miss.
func (c *netCache) checkout(key netKey) *congest.Network {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.warm[key]
	if !ok {
		return nil
	}
	delete(c.warm, key)
	return w.net
}

// checkin returns a network to the cache, evicting LRU entries over cap.
func (c *netCache) checkin(key netKey, net *congest.Network) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	c.warm[key] = warmNet{net: net, stamp: c.tick}
	for len(c.warm) > c.cap {
		var oldest netKey
		var oldestStamp int64 = math.MaxInt64
		for k, w := range c.warm {
			if w.stamp < oldestStamp {
				oldest, oldestStamp = k, w.stamp
			}
		}
		delete(c.warm, oldest)
	}
}

// RunJobs drains the spec's work queue over one shared worker pool, calling
// emit (serialized — emit needs no locking of its own) for each completed
// run in completion order. Every Result is self-identifying via Job, so
// consumers needing queue order sort on it. Protocol errors are reported in
// Result.Err and counted, never fatal: a serving drain survives individual
// run failures.
func RunJobs(spec JobSpec, emit func(Result)) (Summary, error) {
	jobs, err := spec.Expand()
	if err != nil {
		return Summary{}, err
	}
	// The scenario grammar is parsed once here; topology validation (does
	// that node/edge exist?) happens per network in runJob, where a mismatch
	// becomes that run's Result.Err, not a fatal drain error.
	scenario, err := congest.ParseScenario(spec.Scenario)
	if err != nil {
		return Summary{}, fmt.Errorf("job spec scenario: %w", err)
	}
	scenarioStr := scenario.String()
	poolWorkers := spec.PoolWorkers
	if poolWorkers <= 0 {
		poolWorkers = runtime.GOMAXPROCS(0)
	}
	cacheCap := spec.Cache
	if cacheCap == 0 {
		cacheCap = defaultJobCache
	}
	cache := newNetCache(cacheCap)
	var next atomic.Int64
	var mu sync.Mutex
	var sum Summary
	start := time.Now()
	congest.RunPool(poolWorkers, func(int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(jobs) {
				return
			}
			res := runJob(jobs[i], cache, spec.NetWorkers, scenario, scenarioStr)
			mu.Lock()
			sum.Runs++
			if res.Err != "" {
				sum.Errors++
			}
			if res.Reused {
				sum.Reused++
			}
			if emit != nil {
				emit(res)
			}
			mu.Unlock()
		}
	})
	sum.Elapsed = time.Since(start)
	if s := sum.Elapsed.Seconds(); s > 0 {
		sum.RunsPerSec = float64(sum.Runs) / s
	}
	return sum, nil
}

// runJob executes one work item: check out (or build) the topology's
// network, Reset it to as-new state, attach the drain's fault scenario, run
// the protocol, emit the accounting, and check the network back in warm.
// Reset runs on fresh networks too — a no-op there — so every run starts
// from the identical contract, and SetScenario compiles a rewound fault
// state every time, so a warm network replays the same faults a fresh one
// sees. A scenario the topology rejects (a crash node or drop edge the
// graph does not have) is that run's Result.Err.
func runJob(j Job, cache *netCache, netWorkers int, scenario *congest.Scenario, scenarioStr string) Result {
	start := time.Now()
	key := netKey{family: j.Family, n: j.N, seed: j.Seed}
	net := cache.checkout(key)
	reused := net != nil
	if net == nil {
		g := jobFamilies[j.Family](j.N, j.Seed)
		if netWorkers > 0 {
			net = congest.NewNetworkWorkers(g, j.Seed, netWorkers)
		} else {
			net = congest.NewNetwork(g, j.Seed)
		}
	}
	net.Reset()
	err := net.SetScenario(scenario)
	var out string
	if err == nil {
		out, err = jobProtocols[j.Protocol](net)
	}
	res := Result{
		Job:      j.Index,
		Protocol: j.Protocol,
		Family:   j.Family,
		N:        net.N(),
		Seed:     j.Seed,
		Reused:   reused,
		Rounds:   net.Total().Rounds,
		Messages: net.Total().Messages,
		Output:   digest(out),
		MS:       float64(time.Since(start).Microseconds()) / 1e3,
		Scenario: scenarioStr,
	}
	if err != nil {
		res.Err = err.Error()
	}
	cache.checkin(key, net)
	return res
}

// digest compresses a serialized protocol output to a 16-hex-digit FNV-64a
// tag: enough to prove bit-identity across runs without shipping O(n)
// output vectors on every JSON line.
func digest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// maxJobs bounds a spec's seed list and its expanded queue. A spec is
// outside input, and a seed range such as 1-9999999999 would otherwise
// have the parser materialize it until memory runs out.
const maxJobs = 1 << 20

// ParseJobSpec parses the pabench -jobs spec string: semicolon-separated
// key=value clauses.
//
//	protocols=mst,domset       protocol names, or "all" (default: all)
//	graphs=torus:400,random:120  family:targetN pairs (required)
//	seeds=1,2,5-8              seed list with inclusive ranges (default: 1)
//	scenario=crash=7@2+seed-faults=0.01  fault scenario for every run
//
// The scenario value is itself in the congest.ParseScenario grammar, which
// accepts '+' as a clause separator precisely so a whole scenario fits in
// one jobs clause without colliding with the ';' that separates jobs
// clauses here.
//
// Example: -jobs 'graphs=torus:400;protocols=mst,sssp;seeds=1-16'.
// Pool width, engine workers, and cache capacity are flags, not spec
// clauses: they change wall-clock behavior only, never results.
func ParseJobSpec(s string) (JobSpec, error) {
	var spec JobSpec
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return JobSpec{}, fmt.Errorf("job spec clause %q is not key=value", clause)
		}
		switch key {
		case "protocols":
			if val != "all" {
				spec.Protocols = splitList(val)
			}
		case "graphs":
			for _, item := range splitList(val) {
				fam, size, ok := strings.Cut(item, ":")
				if !ok {
					return JobSpec{}, fmt.Errorf("graph %q is not family:n", item)
				}
				n, err := strconv.Atoi(size)
				if err != nil {
					return JobSpec{}, fmt.Errorf("graph %q: bad size: %v", item, err)
				}
				spec.Graphs = append(spec.Graphs, GraphSpec{Family: fam, N: n})
			}
		case "seeds":
			for _, item := range splitList(val) {
				lo, hi, isRange := strings.Cut(item, "-")
				a, err := strconv.ParseInt(lo, 10, 64)
				if err != nil {
					return JobSpec{}, fmt.Errorf("seed %q: %v", item, err)
				}
				b := a
				if isRange {
					if b, err = strconv.ParseInt(hi, 10, 64); err != nil {
						return JobSpec{}, fmt.Errorf("seed range %q: %v", item, err)
					}
					if b < a {
						return JobSpec{}, fmt.Errorf("seed range %q is descending", item)
					}
				}
				// b-a in uint64 cannot overflow, even for a range across all of int64.
				if uint64(b)-uint64(a) >= uint64(maxJobs-len(spec.Seeds)) {
					return JobSpec{}, fmt.Errorf("seed list longer than %d", maxJobs)
				}
				for v := a; v <= b; v++ {
					spec.Seeds = append(spec.Seeds, v)
				}
			}
		case "scenario":
			if _, err := congest.ParseScenario(val); err != nil {
				return JobSpec{}, fmt.Errorf("scenario %q: %v", val, err)
			}
			spec.Scenario = val
		default:
			return JobSpec{}, fmt.Errorf("unknown job spec key %q (have: protocols, graphs, seeds, scenario)", key)
		}
	}
	if len(spec.Graphs) == 0 {
		return JobSpec{}, fmt.Errorf("job spec needs a graphs= clause, e.g. graphs=torus:400")
	}
	return spec, nil
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
