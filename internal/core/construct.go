package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/part"
	"shortcutpa/internal/shortcut"
	"shortcutpa/internal/subpart"
)

// construct.go drives shortcut construction per Section 5.2 (randomized,
// Algorithm 4 around the CoreFast primitive of [19]) and the
// budget-doubling search of Section 1.3 ("our algorithms need not know the
// optimal values of block parameter and congestion, as a simple doubling
// trick can be used").
//
// One budget parameter R plays the roles of both the congestion threshold
// (CoreFast rejects a part's claim at an edge already carrying R parts in
// the current run) and the verification deadline (Algorithm 2 passes a part
// iff the Algorithm 1 broadcast covered it within the R-derived schedule).
// Parts that verify are frozen with their claims; the rest retry, and R
// doubles when a full round of retries makes no progress — so the final
// budget is within a constant factor of the best (bD + c) any shortcut of
// the graph admits, as the paper's doubling remark prescribes.

const kClaim int32 = 95

// Infra is the per-partition infrastructure a PA call needs: the coverage
// classification, the sub-part division, the shortcut, and the verified
// budget under which Algorithm 1 completes.
type Infra struct {
	In  *part.Info
	PB  *part.BFS
	Div *subpart.Division
	SC  *shortcut.Shortcut

	// Budget is the verified round budget R (the doubling knob).
	Budget int64
	// CastSeed fixes the randomized variant's part delays so the verified
	// schedule replays exactly in later Solve runs.
	CastSeed int64
	// Attempts records how many (CoreFast + verify) rounds construction
	// used, for experiment reporting.
	Attempts int
}

// routerCfg assembles the router configuration for this infrastructure.
func (inf *Infra) routerCfg(e *Engine, mode routerMode, vals []congest.Val, f congest.Combine) *routerConfig {
	cfg := &routerConfig{
		eng:      e,
		in:       inf.In,
		div:      inf.Div,
		covered:  inf.PB.Covered,
		sc:       inf.SC,
		mode:     mode,
		vals:     vals,
		f:        f,
		det:      e.Mode == Deterministic,
		castSeed: inf.CastSeed,
	}
	if e.Mode == Randomized {
		cfg.delayRange = inf.Budget
	}
	cfg.verifyAt = 2*inf.Budget + cfg.delayRange + 32
	return cfg
}

// runBudget is the hard round cap for one router run under budget R.
func (inf *Infra) runBudget(cfg *routerConfig) int64 {
	return 2*cfg.verifyAt + 2*inf.Budget + 256
}

// BuildInfra computes the full PA infrastructure for a partition with known
// leaders: coverage classification (radius-D intra-part BFS), a sub-part
// division, and a verified shortcut. Mode selects the randomized
// (Algorithms 3+4) or deterministic (Algorithms 6+7+8) pipeline.
func (e *Engine) BuildInfra(in *part.Info) (*Infra, error) {
	if err := requireLeaders(in); err != nil {
		return nil, err
	}
	pb, err := part.RestrictedBFS(e.Net, in, e.D)
	if err != nil {
		return nil, fmt.Errorf("core: coverage BFS: %w", err)
	}
	var div *subpart.Division
	if e.Mode == Deterministic {
		div, err = subpart.DeterministicDivision(e.Net, in, pb, e.D)
	} else {
		div, err = subpart.RandomDivision(e.Net, in, pb, e.D)
	}
	if err != nil {
		return nil, fmt.Errorf("core: sub-part division: %w", err)
	}
	inf := &Infra{In: in, PB: pb, Div: div, CastSeed: e.Net.Seed()}
	if e.Mode == Deterministic {
		err = e.buildShortcutDeterministic(inf)
	} else {
		err = e.buildShortcutRandom(inf)
	}
	if err != nil {
		return nil, err
	}
	return inf, nil
}

// buildShortcutRandom is Algorithm 4: the shared driver around the
// CoreFast claim wave.
func (e *Engine) buildShortcutRandom(inf *Infra) error {
	return e.runConstructionDriver(inf, e.coreFast)
}

// runConstructionDriver repeats { claim wave for active parts; block setup;
// Algorithm 2 verification; freeze verified parts; drop failed claims }
// with the budget doubling on sustained failure — the outer loops of
// Algorithms 4 and 8 and the Section 1.3 doubling trick, shared by both
// construction pipelines.
func (e *Engine) runConstructionDriver(inf *Infra, claim func(*Infra, []int64) error) error {
	sc := shortcut.New(e.Tree, e.N)
	inf.SC = sc

	active := e.uncoveredParts(inf)
	inf.Budget = e.initialBudget()
	logN := 1
	for s := 1; s < e.N; s *= 2 {
		logN++
	}
	for len(active) > 0 {
		if inf.Budget > e.Net.RoundCap() {
			return fmt.Errorf("core: construction exceeded budget cap %d with %d parts unverified",
				e.Net.RoundCap(), len(active))
		}
		progressed := false
		for rep := 0; rep < logN && len(active) > 0; rep++ {
			inf.Attempts++
			if err := claim(inf, active); err != nil {
				return err
			}
			if err := shortcut.SetupBlocks(e.Net, sc); err != nil {
				return fmt.Errorf("core: block setup: %w", err)
			}
			passed, err := e.verifyParts(inf, active)
			if err != nil {
				return err
			}
			next := active[:0]
			for _, id := range active {
				if passed[id] {
					progressed = true
				} else {
					sc.DropPart(id)
					next = append(next, id)
				}
			}
			active = next
		}
		if !progressed {
			inf.Budget *= 2
		}
	}
	// Final sanity verification over everything at the settled budget.
	if _, err := e.verifyParts(inf, nil); err != nil {
		return err
	}
	return nil
}

// uncoveredParts lists the part IDs that need shortcuts (not covered by the
// radius-D BFS), in deterministic order.
func (e *Engine) uncoveredParts(inf *Infra) []int64 {
	seen := make(map[int64]struct{})
	var out []int64
	for v := 0; v < e.N; v++ {
		if !inf.PB.Covered[v] {
			id := inf.In.LeaderID[v]
			if _, ok := seen[id]; !ok {
				seen[id] = struct{}{}
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// coreFast runs one claim wave: representatives of active parts send their
// part ID rootward along T; each node forwards each distinct part at most
// once per edge (one claim per round, FIFO), and an edge already carrying
// the threshold number of parts from this run rejects further parts, which
// then root their blocks below it ([19]'s CoreFast, with only the Õ(n/D)
// representatives claiming — Section 3.2's message-efficiency device).
func (e *Engine) coreFast(inf *Infra, active []int64) error {
	n := e.N
	cp := &claimProc{
		e: e, inf: inf, active: active, threshold: int(inf.Budget),
		processed: make([][]int64, n),
		queue:     make([][]int64, n),
		accepted:  make([]int, n),
	}
	_, err := e.Net.RunNodes("core/corefast", cp, e.Net.RoundCap())
	if err != nil {
		return fmt.Errorf("core: corefast: %w", err)
	}
	return nil
}

// claimProc is the shared CoreFast state machine: per-node dedup of
// processed parts, a FIFO of claims to forward up, and the per-run
// congestion count on the node's parent edge — all indexed by the stepped
// node.
type claimProc struct {
	e         *Engine
	inf       *Infra
	active    []int64 // ascending, as the construction driver keeps it
	threshold int

	processed [][]int64 // parts already considered at each node, ascending
	queue     [][]int64
	accepted  []int // claims accepted onto the parent edge this run
}

// Step implements congest.NodeProc.
func (p *claimProc) Step(ctx *congest.Ctx, v int) bool {
	sc := p.inf.SC
	if ctx.Round() == 0 {
		// Representatives of active (uncovered) parts start a claim for
		// their part.
		if p.inf.Div.IsRep[v] && !p.inf.PB.Covered[v] {
			if _, ok := slices.BinarySearch(p.active, p.inf.In.LeaderID[v]); ok {
				p.consider(v, p.inf.In.LeaderID[v])
			}
		}
	}
	ctx.ForRecv(func(in congest.Incoming) {
		if in.Msg.Kind != kClaim {
			return
		}
		i := in.Msg.A
		// The child's edge now carries part i; remember the down-port.
		sc.AddDownPort(v, i, in.Port)
		p.consider(v, i)
	})
	// Forward one queued claim per round up the tree.
	if len(p.queue[v]) > 0 {
		pp := p.e.Tree.ParentPort[v]
		ctx.Send(pp, congest.Message{Kind: kClaim, A: p.queue[v][0]})
		p.queue[v] = p.queue[v][1:]
	}
	return len(p.queue[v]) > 0
}

// consider decides once per part whether to extend its claim over v's
// parent edge.
func (p *claimProc) consider(v int, i int64) {
	k, done := slices.BinarySearch(p.processed[v], i)
	if done {
		return
	}
	p.processed[v] = slices.Insert(p.processed[v], k, i)
	if p.e.Tree.ParentPort[v] < 0 {
		return // tree root: claims stop here
	}
	if p.accepted[v] >= p.threshold {
		return // edge full this run: part i's block roots here
	}
	p.accepted[v]++
	p.inf.SC.ClaimUp(v, i)
	p.queue[v] = append(p.queue[v], i)
}

// verifyParts is Algorithm 2: run the Algorithm 1 broadcast with an
// arbitrary token, let uncovered nodes complain to covered part-neighbors,
// aggregate the complaint bit at each leader, and broadcast the verdict.
// It returns the set of part IDs that verified (complaint-free). With
// check == nil all parts are read; otherwise only those listed.
func (e *Engine) verifyParts(inf *Infra, check []int64) (map[int64]bool, error) {
	cfg := inf.routerCfg(e, modeVerify, nil, congest.OrPair)
	// run is the Engine's recycled router state: read before the next run.
	run, err := runRouter(cfg, "core/verify", inf.runBudget(cfg))
	var exceeded *congest.BudgetExceededError
	if err != nil && !errors.As(err, &exceeded) {
		return nil, fmt.Errorf("core: verify: %w", err)
	}
	want := make(map[int64]struct{}, len(check))
	for _, id := range check {
		want[id] = struct{}{}
	}
	passed := make(map[int64]bool)
	for v := 0; v < e.N; v++ {
		if !inf.In.IsLeader[v] {
			continue
		}
		id := inf.In.LeaderID[v]
		if check != nil {
			if _, ok := want[id]; !ok {
				continue
			}
		}
		val, ok := run.result(v, id)
		passed[id] = exceeded == nil && ok && val.A == 0
	}
	if check == nil && exceeded != nil {
		return nil, fmt.Errorf("core: final verification did not settle: %w", err)
	}
	if check == nil {
		// Report the smallest failing ID, not the first map-iteration hit:
		// error strings are part of the bit-identical execution contract
		// (the scenario-equivalence harness compares them), so the choice
		// must be deterministic.
		worst := int64(math.MaxInt64)
		for id, ok := range passed {
			if !ok && id < worst {
				worst = id
			}
		}
		if worst != math.MaxInt64 {
			return nil, fmt.Errorf("core: part %d failed final verification", worst)
		}
	}
	return passed, nil
}
