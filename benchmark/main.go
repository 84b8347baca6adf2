package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below are
// the benchmark's output contract; BENCHMARK.json declares the same names
// and units, with each end-to-end metric's direction and bound.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"runs_per_s", "1/s"},
	{"heap_mb", "MB"},
	{"rounds_ratio", "ratio"},
	{"msgs_ratio", "ratio"},
}

var perLayer = []metricDef{
	{"graph.build_s", "s"},
	{"graph.alloc_mb", "MB"},
	{"congest.new_network_s", "s"},
	{"congest.resident_mb", "MB"},
	{"congest.bytes_per_slot", "B"},
	{"congest.rounds", "count"},
	{"congest.msgs", "count"},
	{"congest.stepped", "count"},
	{"congest.awake_frac", "fraction"},
	{"congest.sparse_frac", "fraction"},
	{"congest.ns_per_round", "ns"},
	{"congest.ns_per_msg", "ns"},
	{"tree.rounds", "count"},
	{"tree.msgs", "count"},
	{"part.rounds", "count"},
	{"part.msgs", "count"},
	{"subpart.rounds", "count"},
	{"subpart.msgs", "count"},
	{"shortcut.rounds", "count"},
	{"shortcut.msgs", "count"},
	{"core.rounds", "count"},
	{"core.msgs", "count"},
	{"app.rounds", "count"},
	{"app.msgs", "count"},
	{"core.attempts", "count"},
	{"mst.phases", "count"},
	{"bench.reuse_frac", "fraction"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
	{"host.ref_s", "s"},
}

// metricDefs is the metric set a run reports: per-layer with trace,
// end-to-end without.
func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

//go:embed testdata/golden.json
var goldenJSON []byte

func loadGolden() (map[string]fingerprint, error) {
	var g map[string]fingerprint
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}

// measure runs one workload at the given sizes.
func measure(sz sizes, name string, seed int64, seconds time.Duration, trace bool, golden map[string]fingerprint) *result {
	if name == "serve-mix" {
		return runMix(sz.mix, sz.mixSeeds, seed, seconds, trace, golden)
	}
	return runBatch(batches(sz)[name], seed, seconds, trace, golden)
}

// metrics computes the contract's metrics: the end-to-end set, or with
// trace the per-layer set. Exact counts are means over the distinct inputs,
// rates medians over the timed runs. Times are scaled to the reference host
// (hostScale); host.ref_s gives the factor back.
func (r *result) metrics(trace bool) map[string]float64 {
	scale := r.hostScale()
	if !trace {
		return map[string]float64{
			"setup_s":      median(r.setupS) * scale,
			"run_s":        meanOfMedians(r.runByKey) * scale,
			"runs_per_s":   ratio(1, meanOfMedians(r.wallByKey)*scale),
			"heap_mb":      r.heapMB,
			"rounds_ratio": mean(r.perInput["rounds_ratio"]),
			"msgs_ratio":   mean(r.perInput["msgs_ratio"]),
		}
	}
	out := map[string]float64{}
	for _, m := range perLayer {
		if xs, ok := r.perInput[m.name]; ok {
			out[m.name] = mean(xs)
		} else {
			out[m.name] = median(r.perRun[m.name])
		}
	}
	out["congest.ns_per_round"] *= scale
	out["congest.ns_per_msg"] *= scale
	for _, lt := range r.tr.layerTimes() {
		switch lt.name {
		case "graph.build":
			out["graph.build_s"] = median(lt.total) * scale
			out["graph.alloc_mb"] = median(lt.allocMB)
		case "congest.new_network":
			out["congest.new_network_s"] = median(lt.total) * scale
		}
	}
	out["runtime.gc_cpu_frac"] = ratio(r.gcCPU, r.gcCPU+r.userCPU)
	out["trace.overhead_frac"] = median(r.overhead) - 1
	out["host.ref_s"] = r.refS()
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of an -out file: a workload run's metrics, the input
// of the compare command.
type record struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Trace    int                    `json:"trace"`
	Correct  bool                   `json:"correct"`
	Metrics  map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: all five, one after another)")
	seed := fs.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Float64("seconds", 20, "how long each workload measures")
	trace := fs.Int("trace", 0, "0: report end-to-end metrics; 1: traced run reporting per-layer metrics")
	spansFile := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	outFile := fs.String("out", "", "append one JSON record per workload to this file, for compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "usage: benchmark [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-out FILE]")
		fmt.Fprintln(stderr, "       benchmark compare [-bench BENCHMARK.json] BASE.jsonl... -- NEW.jsonl...")
		return 2
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "unknown workload %q (have: %v)\n", *workload, workloadNames)
			return 2
		}
		names = []string{*workload}
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// One thread runs everything, the collector included: the engine is
	// sequential here, and a second core whose availability varies with
	// other load only adds noise.
	runtime.GOMAXPROCS(1)
	traced := *trace == 1
	defs := metricDefs(traced)
	sum := summary{Metrics: map[string]metricValue{}}
	spans := map[string][]span{}
	var records []record
	for i, name := range names {
		if i > 0 {
			debug.FreeOSMemory()
		}
		r := measure(fullSizes, name, *seed, time.Duration(*seconds*float64(time.Second)), traced, golden)
		report(stdout, r, traced)
		rec := record{Workload: name, Seed: *seed, Trace: *trace, Correct: r.failed() == 0, Metrics: map[string]metricValue{}}
		vals := r.metrics(traced)
		for _, d := range defs {
			rec.Metrics[d.name] = metricValue{vals[d.name], d.unit}
			key := d.name
			if len(names) > 1 {
				key = name + "/" + d.name
			}
			sum.Metrics[key] = metricValue{vals[d.name], d.unit}
		}
		records = append(records, rec)
		sum.Attempted += r.attempted
		sum.Failed += r.failed()
		if traced {
			spans[name] = r.tr.spans
		}
	}
	if *outFile != "" {
		if err := appendRecords(*outFile, records); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *spansFile != "" && traced {
		if err := writeJSON(*spansFile, spans); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	sum.Correct = sum.Failed == 0
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

func appendRecords(path string, recs []record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report prints a workload run for a reader: every metric of the run's mode
// with its unit, the tail the samples support, every per-layer count, and in
// trace mode each span's time.
func report(w io.Writer, r *result, trace bool) {
	fmt.Fprintf(w, "== %s: %d timed runs, %d attempted, %d failed\n", r.workload, len(r.runS), r.attempted, r.failed())
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	vals := r.metrics(trace)
	for _, d := range metricDefs(trace) {
		fmt.Fprintf(w, "  %-24s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
	scale := r.hostScale()
	fmt.Fprintf(w, "  host: reference %.4g ms (%d samples), so times are scaled by %.4f\n",
		1e3*r.refS(), len(r.refALU), scale)
	fmt.Fprintf(w, "  run_s_p50 %.6g s (%d samples)\n", median(r.runS)*scale, len(r.runS))
	if p, v, ok := tailPercentile(r.runS); ok {
		fmt.Fprintf(w, "  run_s_p%d %.6g s\n", p, v*scale)
	} else {
		fmt.Fprintf(w, "  no tail percentile: %d samples leave fewer than 10 beyond p75\n", len(r.runS))
	}
	fmt.Fprintf(w, "  exact counts, mean over distinct inputs (count):\n")
	for _, k := range slices.Sorted(maps.Keys(r.perInput)) {
		fmt.Fprintf(w, "    %-28s %14.6g (%d)\n", k, mean(r.perInput[k]), len(r.perInput[k]))
	}
	fmt.Fprintf(w, "  rates, median over timed runs, unscaled (count):\n")
	for _, k := range slices.Sorted(maps.Keys(r.perRun)) {
		fmt.Fprintf(w, "    %-28s %14.6g (%d)\n", k, median(r.perRun[k]), len(r.perRun[k]))
	}
	if trace {
		fmt.Fprintf(w, "  %-30s %6s %12s %12s %10s\n", "span, unscaled, median per trace", "runs", "total_s", "self_s", "alloc_mb")
		for _, lt := range r.tr.layerTimes() {
			fmt.Fprintf(w, "    %-28s %6d %12.6f %12.6f %10.3f\n", lt.name, len(lt.total), median(lt.total), median(lt.self), median(lt.allocMB))
		}
	}
}
