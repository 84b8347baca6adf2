package bench

import (
	"fmt"
	"math/rand"

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

// Experiments lists every runnable experiment by ID: the experiment index.
func Experiments() map[string]func(seed int64) (*Table, error) {
	return map[string]func(seed int64) (*Table, error){
		"T1":  Table1,
		"T2":  Table2,
		"F2":  Figure2,
		"C13": MSTExperiment,
		"C14": MinCutExperiment,
		"C15": SSSPExperiment,
		"A1":  VerifyExperiment,
		"A3":  DomSetExperiment,
		"ABL": Ablations,
	}
}

// Table1 measures the constructed shortcut's congestion and block parameter
// per graph family (paper Table 1 gives the existential bounds).
func Table1(seed int64) (*Table, error) {
	t := &Table{
		ID:      "T1",
		Title:   "shortcut quality per family (paper Table 1: bounds on b, c)",
		Headers: []string{"family", "instance", "n", "m", "D", "paper b", "meas b", "paper c", "meas c", "budget R"},
		Notes: []string{
			"measured b, c are properties of the shortcut the doubling-budget construction settles on",
			"paper values are existential bounds for the best shortcut, up to polylog factors",
		},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, fam := range families() {
		g, desc := fam.build(rng), fam.desc
		parts := hardPartition(g)
		if fam.name == "bad-example" {
			parts = graph.GridStarRowParts(8, 48)
		} else {
			// Plain family instances admit covered parts (their deep parts
			// still fold within D); apex them so parts genuinely exceed D,
			// as the paper's own lower-bound instance does.
			g, parts = deepApexInstance(g, 24)
			desc += "+apex"
		}
		e, in, err := setupInstance(g, parts, seed+7, core.Randomized)
		if err != nil {
			return nil, err
		}
		inf, err := e.BuildInfra(in)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fam.name, desc, itoaInt(g.N()), itoaInt(g.M()), itoa(e.D),
			fam.paperB, itoaInt(inf.SC.BlockParameter()),
			fam.paperC, itoaInt(inf.SC.Congestion()),
			itoa(inf.Budget),
		})
	}
	return t, nil
}

// Table2 measures PA round complexity per family for both modes (paper
// Table 2).
func Table2(seed int64) (*Table, error) {
	t := &Table{
		ID:      "T2",
		Title:   "PA rounds per family, randomized vs deterministic (paper Table 2)",
		Headers: []string{"family", "instance", "n", "D", "paper", "rand rounds", "det rounds", "rand msgs/m", "det msgs/m"},
		Notes: []string{
			"rounds/messages cover one full Solve including infrastructure construction",
			"msgs/m is the message bill divided by the edge count: the ~O(m) claim",
		},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, fam := range families() {
		g, desc := fam.build(rng), fam.desc
		parts := hardPartition(g)
		if fam.name == "bad-example" {
			parts = graph.GridStarRowParts(8, 48)
		} else {
			g, parts = deepApexInstance(g, 24)
			desc += "+apex"
		}
		var cells []string
		cells = append(cells, fam.name, desc, itoaInt(g.N()), "", fam.paperRT)
		var msgRatios []string
		for _, mode := range []core.Mode{core.Randomized, core.Deterministic} {
			e, in, err := setupInstance(g, parts, seed+11, mode)
			if err != nil {
				return nil, err
			}
			cells[3] = itoa(e.D)
			e.Net.ResetMetrics()
			vals := make([]congest.Val, g.N())
			for v := range vals {
				vals[v] = congest.Val{A: int64(v)}
			}
			if _, err := e.Solve(in, vals, congest.SumPair); err != nil {
				return nil, err
			}
			cells = append(cells, itoa(e.Net.Total().Rounds))
			msgRatios = append(msgRatios, ratio(e.Net.Total().Messages, int64(g.M())))
		}
		cells = append(cells, msgRatios...)
		t.Rows = append(t.Rows, cells)
	}
	return t, nil
}

// Figure2 reproduces the Section 3.1 message lower-bound demonstration: on
// the grid-star instance (tree rooted at the apex), per-aggregation
// messages of the prior-work block-push flow (Θ(nD)) against the sub-part
// algorithm (Θ̃(n)), sweeping D.
func Figure2(seed int64) (*Table, error) {
	t := &Table{
		ID:      "F2",
		Title:   "grid-star per-call messages: block-push (prior work) vs sub-parts (paper Fig. 2 / Sec. 3.1)",
		Headers: []string{"rows (~D)", "n", "m", "push msgs", "push/n", "ours msgs", "ours/n", "push/ours"},
		Notes: []string{
			"push/n grows linearly with D (the Omega(nD) bound); ours/n stays near-flat (the O~(n) bound)",
			"infrastructure construction excluded: the paper amortizes it across aggregations",
		},
	}
	const colsFactor = 8
	for _, rows := range []int{6, 12, 24, 32} {
		cols := colsFactor * rows
		g := graph.GridStar(rows, cols)
		parts := graph.GridStarRowParts(rows, cols)
		var push, ours int64
		for _, blockPush := range []bool{true, false} {
			net := newNetwork(g, seed+int64(rows))
			e, err := core.NewEngineAt(net, core.Randomized, g.N()-1)
			if err != nil {
				return nil, err
			}
			in, err := part.FromDense(net, parts)
			if err != nil {
				return nil, err
			}
			if err := part.ElectLeaders(net, in, net.RoundCap()); err != nil {
				return nil, err
			}
			vals := make([]congest.Val, g.N())
			for v := range vals {
				vals[v] = congest.Val{A: int64(v)}
			}
			var inf *core.Infra
			if blockPush {
				inf, err = e.BuildInfraOpts(in, core.InfraOptions{SingletonSubParts: true})
			} else {
				inf, err = e.BuildInfra(in)
			}
			if err != nil {
				return nil, err
			}
			e.Net.ResetMetrics()
			if blockPush {
				_, err = e.BlockPushAggregate(inf, vals, congest.SumPair)
			} else {
				_, err = e.SolveWithInfra(inf, vals, congest.SumPair)
			}
			if err != nil {
				return nil, err
			}
			if blockPush {
				push = e.Net.Total().Messages
			} else {
				ours = e.Net.Total().Messages
			}
		}
		n := int64(g.N())
		t.Rows = append(t.Rows, []string{
			itoaInt(rows), itoa(n), itoaInt(g.M()),
			itoa(push), ratio(push, n),
			itoa(ours), ratio(ours, n),
			ratio(push, ours),
		})
	}
	return t, nil
}

// MSTExperiment measures Corollary 1.3: PA-MST vs the no-shortcut baseline.
func MSTExperiment(seed int64) (*Table, error) {
	t := &Table{
		ID:      "C13",
		Title:   "MST (Corollary 1.3): Boruvka-over-PA vs no-shortcut baseline",
		Headers: []string{"instance", "n", "m", "D", "phases", "PA rounds", "PA msgs/m", "base rounds", "base msgs/m", "correct"},
		Notes:   []string{"correct: distributed tree equals the unique (weight, id)-lexicographic MST (Kruskal oracle)"},
	}
	rng := rand.New(rand.NewSource(seed))
	instances := []struct {
		name string
		g    *graph.Graph
	}{
		{"gridstar 8x64", graph.RandomizeWeights(graph.GridStar(8, 64), 100, rng)},
		{"grid 14x14", graph.RandomizeWeights(graph.Grid(14, 14), 100, rng)},
		{"G(n=160)", graph.RandomizeWeights(graph.RandomConnected(160, 0.025, rng), 100, rng)},
	}
	for _, inst := range instances {
		var (
			diam, phases                           string
			paRounds, paMsgs, baseRounds, baseMsgs string
		)
		correct := true
		for _, baseline := range []bool{false, true} {
			net := newNetwork(inst.g, seed+3)
			e, err := core.NewEngine(net, core.Randomized)
			if err != nil {
				return nil, err
			}
			diam = itoa(e.D)
			e.Net.ResetMetrics()
			res, err := mst.Run(e, mst.Options{Baseline: baseline})
			if err != nil {
				return nil, err
			}
			if res.Weight != inst.g.MSTWeight() {
				correct = false
			}
			rounds := itoa(e.Net.Total().Rounds)
			msgs := ratio(e.Net.Total().Messages, int64(inst.g.M()))
			if baseline {
				baseRounds, baseMsgs = rounds, msgs
			} else {
				phases = itoaInt(res.Phases)
				paRounds, paMsgs = rounds, msgs
			}
		}
		t.Rows = append(t.Rows, []string{
			inst.name, itoaInt(inst.g.N()), itoaInt(inst.g.M()), diam, phases,
			paRounds, paMsgs, baseRounds, baseMsgs, fmt.Sprintf("%v", correct),
		})
	}
	return t, nil
}

// MinCutExperiment measures Corollary 1.4: tree-packing approximation
// quality vs Stoer-Wagner.
func MinCutExperiment(seed int64) (*Table, error) {
	t := &Table{
		ID:      "C14",
		Title:   "approximate min-cut (Corollary 1.4): tree packing vs Stoer-Wagner",
		Headers: []string{"instance", "n", "trees", "found", "exact", "ratio", "rounds", "msgs/m"},
	}
	rng := rand.New(rand.NewSource(seed))
	instances := []struct {
		name  string
		g     *graph.Graph
		trees int
	}{
		{"barbell", barbell(8, 4), 4},
		{"G(n=28)", graph.RandomizeWeights(graph.RandomConnected(28, 0.18, rng), 12, rng), 8},
		{"grid 5x6", graph.RandomizeWeights(graph.Grid(5, 6), 12, rng), 8},
	}
	for _, inst := range instances {
		net := newNetwork(inst.g, seed+5)
		e, err := core.NewEngine(net, core.Randomized)
		if err != nil {
			return nil, err
		}
		e.Net.ResetMetrics()
		res, err := mincut.Approx(e, inst.trees)
		if err != nil {
			return nil, err
		}
		exact, _ := inst.g.StoerWagnerMinCut()
		t.Rows = append(t.Rows, []string{
			inst.name, itoaInt(inst.g.N()), itoaInt(inst.trees),
			itoa(int64(res.Weight)), itoa(int64(exact)), ftoa(res.Ratio(exact)),
			itoa(e.Net.Total().Rounds), ratio(e.Net.Total().Messages, int64(inst.g.M())),
		})
	}
	return t, nil
}

func barbell(k int, bridgeW graph.Weight) *graph.Graph {
	edges := make([]graph.Edge, 0, k*(k-1)+1)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			edges = append(edges, graph.Edge{U: u, V: v, W: 10})
			edges = append(edges, graph.Edge{U: k + u, V: k + v, W: 10})
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: k, W: bridgeW})
	return graph.MustNew(2*k, edges)
}

// SSSPExperiment measures Corollary 1.5: approximation quality and
// meta-rounds across beta, with exact Bellman-Ford as the baseline.
func SSSPExperiment(seed int64) (*Table, error) {
	t := &Table{
		ID:      "C15",
		Title:   "approximate SSSP (Corollary 1.5): beta tradeoff vs Bellman-Ford",
		Headers: []string{"instance", "beta", "meta-rounds", "max ratio", "rounds", "BF rounds"},
		Notes: []string{
			"max ratio: worst node's estimate / true distance (estimates are upper bounds by construction)",
			"the beta knob trades meta-rounds against quality (the Corollary 1.5 tradeoff);",
			"absolute rounds exceed Bellman-Ford here because a path has D = Theta(n): PA's win regime needs D << shortest-path hop length",
		},
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomizeWeights(graph.Path(220), 40, rng)
	exact := g.Dijkstra(0)
	netBF := newNetwork(g, seed+9)
	eBF, err := core.NewEngine(netBF, core.Randomized)
	if err != nil {
		return nil, err
	}
	eBF.Net.ResetMetrics()
	if _, err := sssp.BellmanFord(eBF, 0); err != nil {
		return nil, err
	}
	bfRounds := eBF.Net.Total().Rounds
	for _, beta := range []float64{0, 0.25, 0.5, 1.0} {
		net := newNetwork(g, seed+9)
		e, err := core.NewEngine(net, core.Randomized)
		if err != nil {
			return nil, err
		}
		e.Net.ResetMetrics()
		res, err := sssp.Approx(e, 0, beta)
		if err != nil {
			return nil, err
		}
		worst := 1.0
		for v := 0; v < g.N(); v++ {
			if exact[v] > 0 {
				if r := float64(res.Dist[v]) / float64(exact[v]); r > worst {
					worst = r
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			"path n=220 w<=40", ftoa(beta), itoaInt(res.MetaRounds), ftoa(worst),
			itoa(e.Net.Total().Rounds), itoa(bfRounds),
		})
	}
	return t, nil
}

// VerifyExperiment measures Corollary A.1: the verification suite's costs.
func VerifyExperiment(seed int64) (*Table, error) {
	t := &Table{
		ID:      "A1",
		Title:   "graph verification (Corollary A.1): labeling + verifiers",
		Headers: []string{"check", "n", "m", "result", "rounds", "msgs/m"},
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomizeWeights(graph.RandomConnected(120, 0.035, rng), 30, rng)
	keep := make([]bool, g.M())
	for _, i := range g.KruskalMST() {
		keep[i] = true
	}
	run := func(name string, f func(e *core.Engine) (bool, error)) error {
		net := newNetwork(g, seed+13)
		e, err := core.NewEngine(net, core.Randomized)
		if err != nil {
			return err
		}
		e.Net.ResetMetrics()
		ok, err := f(e)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{
			name, itoaInt(g.N()), itoaInt(g.M()), fmt.Sprintf("%v", ok),
			itoa(e.Net.Total().Rounds), ratio(e.Net.Total().Messages, int64(g.M())),
		})
		return nil
	}
	if err := run("spanning-tree(MST)", func(e *core.Engine) (bool, error) {
		h := verify.SubgraphFromEdges(e, keep)
		lab, err := verify.ComponentLabels(e, h)
		if err != nil {
			return false, err
		}
		return verify.SpanningTree(e, h, lab)
	}); err != nil {
		return nil, err
	}
	if err := run("bipartite(G)", func(e *core.Engine) (bool, error) {
		all := make([]bool, g.M())
		for i := range all {
			all[i] = true
		}
		h := verify.SubgraphFromEdges(e, all)
		lab, err := verify.ComponentLabels(e, h)
		if err != nil {
			return false, err
		}
		return verify.Bipartite(e, h, lab)
	}); err != nil {
		return nil, err
	}
	if err := run("cut(2 tree edges)", func(e *core.Engine) (bool, error) {
		cut := make([]bool, g.M())
		cnt := 0
		for i := range keep {
			if keep[i] && cnt < 2 {
				cut[i] = true
				cnt++
			}
		}
		return verify.CutDisconnects(e, verify.SubgraphFromEdges(e, cut))
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// DomSetExperiment measures Corollary A.3: k-dominating set sizes.
func DomSetExperiment(seed int64) (*Table, error) {
	t := &Table{
		ID:      "A3",
		Title:   "k-dominating set (Corollary A.3): size vs n/k",
		Headers: []string{"instance", "n", "k", "size", "n/k", "size/(n/k)", "rounds", "msgs/m"},
		Notes:   []string{"sampled construction carries the Lemma 5.1 log n factor over the paper's O(n/k)"},
	}
	g := graph.Path(600)
	for _, k := range []int64{16, 32, 64, 128} {
		net := newNetwork(g, seed+k)
		e, err := core.NewEngine(net, core.Randomized)
		if err != nil {
			return nil, err
		}
		e.Net.ResetMetrics()
		res, err := domset.KDominatingSet(e, k)
		if err != nil {
			return nil, err
		}
		nk := float64(g.N()) / float64(k)
		t.Rows = append(t.Rows, []string{
			"path n=600", itoaInt(g.N()), itoa(k), itoaInt(res.Size),
			ftoa(nk), ftoa(float64(res.Size) / nk),
			itoa(e.Net.Total().Rounds), ratio(e.Net.Total().Messages, int64(g.M())),
		})
	}
	return t, nil
}

// Ablations measures the Section 3.2 design choices: full machinery vs
// sub-parts disabled vs shortcuts disabled, per-solve costs on the
// grid-star instance.
func Ablations(seed int64) (*Table, error) {
	t := &Table{
		ID:      "ABL",
		Title:   "ablations on grid-star 10x60 row parts (Section 3.2 design choices)",
		Headers: []string{"variant", "rounds", "messages", "msgs/m"},
		Notes: []string{
			"no-subparts floods blocks from every node (the Section 3.1 strawman, router flavor)",
			"no-shortcut aggregates on intra-part trees only (round-suboptimal on deep parts)",
		},
	}
	const rows, cols = 10, 60
	g := graph.GridStar(rows, cols)
	parts := graph.GridStarRowParts(rows, cols)
	variants := []struct {
		name string
		opts core.InfraOptions
	}{
		{"full (paper)", core.InfraOptions{}},
		{"no-subparts", core.InfraOptions{SingletonSubParts: true}},
		{"no-shortcut", core.InfraOptions{NoShortcut: true}},
	}
	for _, variant := range variants {
		e, in, err := setupInstance(g, parts, seed+17, core.Randomized)
		if err != nil {
			return nil, err
		}
		vals := make([]congest.Val, g.N())
		for v := range vals {
			vals[v] = congest.Val{A: int64(v)}
		}
		inf, err := e.BuildInfraOpts(in, variant.opts)
		if err != nil {
			return nil, err
		}
		e.Net.ResetMetrics()
		if _, err := e.SolveWithInfra(inf, vals, congest.SumPair); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			variant.name, itoa(e.Net.Total().Rounds), itoa(e.Net.Total().Messages),
			ratio(e.Net.Total().Messages, int64(g.M())),
		})
	}
	return t, nil
}
