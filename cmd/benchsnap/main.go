package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Snapshot is the file schema.
type Snapshot struct {
	Note       string            `json:"note,omitempty"`
	Env        map[string]string `json:"env"`
	Benchmarks []Benchmark       `json:"benchmarks"`
	Raw        []string          `json:"raw"`
}

// Benchmark is one parsed result line.
type Benchmark struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			if len(args) != 3 {
				return fmt.Errorf("usage: benchsnap compare OLD.json NEW.json")
			}
			return compare(stdout, args[1], args[2])
		case "gate":
			return gate(stdin, stdout)
		}
	}
	fs := flag.NewFlagSet("benchsnap", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default: stdout)")
	note := fs.String("note", "", "free-form note recorded in the snapshot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	snap, err := parse(bufio.NewScanner(stdin), *note)
	if err != nil {
		return err
	}
	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

// parse reads `go test -bench` text: env header lines (goos/goarch/pkg/cpu),
// result lines ("BenchmarkX-8  10  123 ns/op  4 B/op ..."), and passthrough
// noise (PASS, ok). Result lines are echoed into Raw verbatim.
func parse(sc *bufio.Scanner, note string) (*Snapshot, error) {
	snap := &Snapshot{Note: note, Env: map[string]string{}}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseResult(line)
			if !ok {
				continue
			}
			snap.Benchmarks = append(snap.Benchmarks, b)
			snap.Raw = append(snap.Raw, line)
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"), strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			snap.Env[k] = strings.TrimSpace(v)
			snap.Raw = append(snap.Raw, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	return snap, nil
}

// parseResult parses one result line: name, run count, then (value, unit)
// pairs such as "123 ns/op", "7 allocs/op", "456 ns/round".
func parseResult(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Runs: runs, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

var procsSuffix = regexp.MustCompile(`-\d+$`)

// baseName strips go test's trailing -<GOMAXPROCS>, so rows recorded on
// hosts with different core counts pair up.
func baseName(name string) string { return procsSuffix.ReplaceAllString(name, "") }

// samples groups a snapshot's values by benchmark base name, then unit.
func samples(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rows := map[string]map[string][]float64{}
	for _, b := range snap.Benchmarks {
		name := baseName(b.Name)
		if rows[name] == nil {
			rows[name] = map[string][]float64{}
		}
		for unit, v := range b.Metrics {
			rows[name][unit] = append(rows[name][unit], v)
		}
	}
	return rows, nil
}

// spread formats a sample as "median [min, max] n".
func spread(vs []float64) (string, float64) {
	s := slices.Sorted(slices.Values(vs))
	med := (s[(len(s)-1)/2] + s[len(s)/2]) / 2
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", med, s[0], s[len(s)-1], len(s)), med
}

// compare prints one line per (benchmark, unit) present in both snapshots,
// then names the benchmarks only one side has. It only reports: there is
// no noise band to judge a change against yet.
func compare(w io.Writer, oldPath, newPath string) error {
	old, err := samples(oldPath)
	if err != nil {
		return err
	}
	cur, err := samples(newPath)
	if err != nil {
		return err
	}
	var lines []string
	for name, units := range cur {
		if old[name] == nil {
			lines = append(lines, fmt.Sprintf("%-66s only in %s", name, newPath))
		}
		for unit, nv := range units {
			if ov, ok := old[name][unit]; ok {
				ol, om := spread(ov)
				nl, nm := spread(nv)
				delta := 0.0
				if nm != om {
					delta = (nm - om) / om * 100
				}
				lines = append(lines, fmt.Sprintf("%-66s %-14s %s -> %s  %+.1f%%", name, unit, ol, nl, delta))
			}
		}
	}
	for name := range old {
		if cur[name] == nil {
			lines = append(lines, fmt.Sprintf("%-66s only in %s", name, oldPath))
		}
	}
	slices.Sort(lines)
	fmt.Fprintf(w, "benchsnap compare %s -> %s (median [min, max] n; change of medians)\n", oldPath, newPath)
	fmt.Fprintln(w, strings.Join(lines, "\n"))
	return nil
}

// ceiling is one allocs/op gate rule: rows whose base name starts with
// prefix and, if level is set, has level as one of its /-separated levels.
type ceiling struct {
	prefix, level string
	max           float64
}

// ceilings is the allocation regression gate; the first matching rule wins
// and rows no rule matches go unchecked. Ceilings carry small headroom over
// the pinned values so scheduler wobble in the pool rows doesn't flake the
// gate; a layout or setup regression blows straight past them.
var ceilings = []ceiling{
	// Phase setup: its two pinned workload-side allocations (the closure
	// and counter documented on BenchmarkEngineSetup).
	{"BenchmarkEngineSetup/", "proc=shared", 4},
	// One Algorithm 1/2 router run: 3-170 measured at 5x, up to ~250 in a
	// single op while recycled slices settle. Per-node state lives in
	// recycled flat records; per-node maps would cost 40k-1.3M allocs per
	// op on these n>=1024 graphs.
	{"BenchmarkRouter/", "", 512},
	// One BuildInfra on the n=3000 power-law instance: 10.4k-10.6k
	// (deterministic) and 20.2k-21.1k (randomized) measured at 1x-10x. The
	// shortcut holds one sorted record slice per node; its former three
	// maps per node measured 26.1k and 36.8k.
	{"BenchmarkBuildInfra/", "mode=deterministic", 12800},
	{"BenchmarkBuildInfra/", "mode=randomized", 25600},
	// A node's PRNG: 2 for a first draw (the rand.Rand and its 24-byte
	// source), 3 once a node passes 273 draws and builds its math/rand
	// fallback.
	{"BenchmarkNodeRand/", "", 4},
	// A whole multi-thousand-round sequential phase allocates nothing (the
	// bitset drain runs in preallocated state); the parallel rows stay
	// within the storm's pool overhead (28 measured). The family=sleep
	// rows hold timed wake-ups (Ctx.WakeAt's heap, the workers' wake-up
	// buffers) to the same ceilings: both live in recycled storage.
	{"BenchmarkEngineSparse/", "workers=1", 0},
	{"BenchmarkEngineSparse/", "workers=4", 40},
	// The storm's steady-state round loop: allocation-free sequentially (0
	// pinned), within pool overhead in parallel (31 and 52 pinned).
	{"BenchmarkEngine/", "workers=1", 2},
	{"BenchmarkEngine/", "workers=4", 40},
	{"BenchmarkEngine/", "workers=8", 64},
}

// gate checks the allocs/op of every result line on r against its
// ceiling, printing each breach. It fails on any breach, and when no row
// matched a rule: a gate that checks nothing passes nothing.
func gate(r io.Reader, w io.Writer) error {
	snap, err := parse(bufio.NewScanner(r), "")
	if err != nil {
		return err
	}
	checked, breaches := 0, 0
	for _, b := range snap.Benchmarks {
		allocs, ok := b.Metrics["allocs/op"]
		if !ok {
			continue
		}
		name := baseName(b.Name)
		levels := strings.Split(name, "/")
		for _, c := range ceilings {
			if !strings.HasPrefix(name, c.prefix) || c.level != "" && !slices.Contains(levels, c.level) {
				continue
			}
			checked++
			if allocs > c.max {
				breaches++
				fmt.Fprintf(w, "benchsnap gate: %s at %g allocs/op exceeds pinned ceiling %g\n", b.Name, allocs, c.max)
			}
			break
		}
	}
	switch {
	case checked == 0:
		return fmt.Errorf("gate: no benchmark row matched an allocs/op ceiling")
	case breaches > 0:
		return fmt.Errorf("gate: %d of %d rows over their allocs/op ceiling", breaches, checked)
	}
	fmt.Fprintf(w, "benchsnap gate: %d rows within pinned allocs/op ceilings\n", checked)
	return nil
}
