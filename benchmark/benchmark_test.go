package main

import (
	"encoding/json"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.json from full-size runs at seed 1")

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	var c contract
	if err := readJSONFile("../BENCHMARK.json", &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestContractMatchesCode(t *testing.T) {
	c := readContract(t)
	var wl []string
	for _, w := range c.Workloads {
		wl = append(wl, w.Name)
	}
	if !slices.Equal(wl, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", wl, workloadNames)
	}
	var e2e, layer []metricDef
	for _, m := range c.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range c.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code emits %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, code emits %v", layer, perLayer)
	}
}

// TestWorkloadsToy runs every workload at toy sizes through the code the
// benchmark runs, untraced and traced: the oracles must pass, and the
// emitted metric names must be exactly the declared ones.
func TestWorkloadsToy(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			r := measure(toySizes, name, 1, 0, trace, nil)
			if r.failed() > 0 || r.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d runs failed: %v", name, trace, r.failed(), r.attempted, r.failures)
			}
			var want []string
			for _, d := range metricDefs(trace) {
				want = append(want, d.name)
			}
			got := slices.Sorted(maps.Keys(r.metrics(trace)))
			if slices.Sort(want); !slices.Equal(got, want) {
				t.Errorf("%s trace=%v emits %v, want %v", name, trace, got, want)
			}
			if trace != (len(r.tr.spans) > 0) {
				t.Errorf("%s trace=%v recorded %d spans", name, trace, len(r.tr.spans))
			}
		}
	}
}

// TestGoldenMismatchFails shows a wrong fingerprint is counted as a failed
// run.
func TestGoldenMismatchFails(t *testing.T) {
	key := "wave-torus/1000"
	r := measure(toySizes, "wave-torus", 1, 0, false, map[string]fingerprint{key: {Rounds: 1}})
	if r.failed() != 1 || !strings.HasPrefix(r.failures[0], key) {
		t.Fatalf("failed=%d failures=%v, want exactly %s", r.failed(), r.failures, key)
	}
}

// TestGoldenCoversDefaultSeed checks testdata/golden.json has one entry per
// input of a seed-1 run at the reported sizes.
func TestGoldenCoversDefaultSeed(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	jobs := len(mixProtocols) * len(fullSizes.mix) * fullSizes.mixSeeds
	want := map[string]int{
		"mst-torus": fullSizes.mstInputs, "pa-powerlaw": fullSizes.paInputs,
		"flood-powerlaw": fullSizes.floodInputs, "wave-torus": fullSizes.waveInputs, "serve-mix": jobs,
	}
	got := map[string]int{}
	for k := range golden {
		w, _, _ := strings.Cut(k, "/")
		got[w]++
	}
	if !maps.Equal(got, want) {
		t.Errorf("golden.json entries per workload %v, want %v (regenerate with go test -update)", got, want)
	}
}

// TestGoldenUpdate regenerates testdata/golden.json with -update.
func TestGoldenUpdate(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate testdata/golden.json")
	}
	golden := map[string]fingerprint{}
	for _, name := range workloadNames {
		r := measure(fullSizes, name, 1, 0, false, nil)
		if r.failed() > 0 {
			t.Fatalf("%s: %v", name, r.failures)
		}
		maps.Copy(golden, r.seen)
	}
	if err := writeJSON(filepath.Join("testdata", "golden.json"), golden); err != nil {
		t.Fatal(err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		// statistics.quantiles(..., n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		// one value, which Python refuses: every cut point is that value
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n, pct int
		ok     bool
	}{{39, 0, false}, {40, 75, true}, {99, 75, true}, {100, 90, true}, {999, 90, true}, {1000, 99, true}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i)
		}
		pct, v, ok := tailPercentile(xs)
		if pct != c.pct || ok != c.ok {
			t.Errorf("n=%d: got p%d ok=%v, want p%d ok=%v", c.n, pct, ok, c.pct, c.ok)
		}
		if beyond := c.n - int(v); ok && beyond < 10 {
			t.Errorf("n=%d: p%d = %v leaves %d samples beyond", c.n, pct, v, beyond)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	seeds := func(f func(i int) float64) sample {
		s := sample{}
		for i := range 10 {
			s[int64(i+1)] = []float64{f(i)}
		}
		return s
	}
	base := seeds(func(i int) float64 { return 100 + float64(i%3) })
	for _, c := range []struct {
		name   string
		next   sample
		higher bool
		want   string
	}{
		{"faster everywhere", seeds(func(i int) float64 { return 80 + float64(i%3) }), false, "improved"},
		{"same", seeds(func(i int) float64 { return 100.5 + float64(i%3) }), false, "within bound"},
		{"slower", seeds(func(i int) float64 { return 120 + float64(i%3) }), false, "worse"},
		{"throughput dropped", seeds(func(i int) float64 { return 80 + float64(i%3) }), true, "worse"},
		{"noisy", seeds(func(i int) float64 { return 50 + 10*float64(i) }), false, "unresolved"},
		{"too few pairs to claim", sample{1: {50}}, false, "within bound"},
	} {
		if _, got := verdict(base, c.next, c.higher, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runS float64) string {
		p := filepath.Join(dir, name)
		var lines []string
		for seed := int64(1); seed <= 3; seed++ {
			b, err := json.Marshal(record{Workload: "mst-torus", Seed: seed, Metrics: map[string]metricValue{
				"run_s": {runS, "s"}, "setup_s": {0.001, "s"}}})
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, string(b))
		}
		if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, slow := write("base.jsonl", 0.3), write("slow.jsonl", 0.6)
	var out, errOut strings.Builder
	if code := compareMain([]string{"-bench", "../BENCHMARK.json", base, "--", slow}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1; stderr %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "run_s ") || !strings.Contains(out.String(), "worse") {
		t.Errorf("compare output lacks the worse run_s row:\n%s", out.String())
	}
	if code := compareMain([]string{base, slow}, &out, &errOut); code != 2 {
		t.Errorf("compare without -- exited %d, want 2", code)
	}
}
