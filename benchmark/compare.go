package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchSpec is the part of BENCHMARK.json compare needs: each end-to-end
// metric's direction and bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// sample is one side's values of one (workload, metric), by seed.
type sample map[int64][]float64

func (s sample) all() []float64 {
	var out []float64
	for _, v := range s {
		out = append(out, v...)
	}
	return out
}

// verdict judges the change from base to next of a metric whose bound is
// the share of base's median it may worsen by. worse is the median's
// relative change, positive when next is worse.
//
//   - improved: at least ten seeds ran on both sides, next is better on at
//     least nine tenths of them, and the medians differ by more than base's
//     own spread;
//   - unresolved: either side's spread is wider than the bound, and not
//     every next value is better than every base value;
//   - worse: the median worsened by more than the bound;
//   - within bound: otherwise.
func verdict(base, next sample, higherBetter bool, bound float64) (worse float64, v string) {
	b, n := base.all(), next.all()
	better := func(x, y float64) bool { return (x < y) != higherBetter && x != y }
	_, bm, _ := quartiles(b)
	_, nm, _ := quartiles(n)
	if bm != 0 {
		worse = (nm - bm) / math.Abs(bm)
	}
	if higherBetter {
		worse = -worse
	}
	pairs, wins := 0, 0
	for seed, bv := range base {
		if nv, ok := next[seed]; ok {
			pairs++
			if better(median(nv), median(bv)) {
				wins++
			}
		}
	}
	allBetter := len(b) > 0 && len(n) > 0
	for _, x := range n {
		for _, y := range b {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case pairs >= 10 && wins*10 >= 9*pairs && -worse > spread(b):
		return worse, "improved"
	case max(spread(b), spread(n)) > bound && !allBetter:
		return worse, "unresolved"
	case worse > bound:
		return worse, "worse"
	}
	return worse, "within bound"
}

// compareMain is `benchmark compare [-bench BENCHMARK.json] BASE... -- NEW...`:
// for every workload and end-to-end metric in the -out record files it
// prints each side's median and quartiles and one verdict. It exits 1 when
// any metric got worse by more than its bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	specPath := "BENCHMARK.json"
	if len(args) >= 2 && args[0] == "-bench" {
		specPath, args = args[1], args[2:]
	}
	sep := slices.Index(args, "--")
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-bench BENCHMARK.json] BASE.jsonl... -- NEW.jsonl...")
		return 2
	}
	var spec benchSpec
	if err := readJSONFile(specPath, &spec); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	base, err := readRecords(args[:sep])
	if err == nil {
		var next map[string]map[string]sample
		if next, err = readRecords(args[sep+1:]); err == nil {
			return compareTable(stdout, spec, base, next)
		}
	}
	fmt.Fprintln(stderr, err)
	return 2
}

func compareTable(w io.Writer, spec benchSpec, base, next map[string]map[string]sample) int {
	status := 0
	fmt.Fprintf(w, "%-15s %-13s %-32s %-32s %8s %6s  %s\n", "workload", "metric", "base median [q1, q3] n", "new median [q1, q3] n", "change", "bound", "verdict")
	for _, wl := range workloadNames {
		if base[wl] == nil || next[wl] == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			b, n := base[wl][m.Name], next[wl][m.Name]
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			worse, v := verdict(b, n, m.Better == "higher", m.Bound)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(w, "%-15s %-13s %-32s %-32s %+7.1f%% %5.0f%%  %s\n",
				wl, m.Name, quartileText(b.all()), quartileText(n.all()), 100*worse, 100*m.Bound, v)
		}
	}
	return status
}

func quartileText(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", q2, q1, q3, len(xs))
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// readRecords loads untraced -out records as workload -> metric -> values.
func readRecords(paths []string) (map[string]map[string]sample, error) {
	out := map[string]map[string]sample{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for line := 1; sc.Scan(); line++ {
			var rec record
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s:%d: %w", p, line, err)
			}
			if rec.Trace != 0 {
				continue
			}
			if out[rec.Workload] == nil {
				out[rec.Workload] = map[string]sample{}
			}
			for name, mv := range rec.Metrics {
				if out[rec.Workload][name] == nil {
					out[rec.Workload][name] = sample{}
				}
				out[rec.Workload][name][rec.Seed] = append(out[rec.Workload][name][rec.Seed], mv.Value)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return out, nil
}
