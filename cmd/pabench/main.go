package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"shortcutpa/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pabench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pabench", flag.ContinueOnError)
	var (
		list       = fs.Bool("list", false, "list experiment IDs and exit")
		exp        = fs.String("exp", "", "comma-separated experiment IDs (default: all)")
		seed       = fs.Int64("seed", 12345, "master seed")
		workers    = fs.Int("workers", 1, "simulation engine workers (results are identical at any setting)")
		sweep      = fs.Bool("sweep", false, "run the engine scale sweep (torus/star/powerlaw up to -sweep-max nodes, with shard-balance columns) instead of the paper experiments")
		sweepMax   = fs.Int("sweep-max", 1_000_000, "largest node count the scale sweep builds per family")
		jobs       = fs.String("jobs", "", "serve a multi-run job spec (protocols x graphs x seeds) over one shared pool, streaming one JSON line per run; e.g. 'graphs=torus:400;protocols=mst,sssp;seeds=1-16'")
		jobsPool   = fs.Int("jobs-pool", 0, "job-queue workers draining the -jobs spec (0 = GOMAXPROCS)")
		jobsCache  = fs.Int("jobs-cache", 0, "warm-network LRU capacity for -jobs topology reuse (0 = default, negative disables reuse)")
		scenario   = fs.String("scenario", "", "fault scenario applied to every -jobs run, e.g. 'crash=17@100;drop=3-9@50;seed-faults=0.01' (overrides a scenario= spec clause)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// An explicitly empty -jobs is a malformed spec, not "no -jobs".
	jobsSet := false
	fs.Visit(func(f *flag.Flag) { jobsSet = jobsSet || f.Name == "jobs" })
	bench.Workers = *workers
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		// Written after the experiments; engine regressions show up as
		// steady-state heap, so collect garbage first for a clean picture.
		defer func() {
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pabench: memprofile:", err)
			}
		}()
	}
	if !jobsSet && *scenario != "" {
		return fmt.Errorf("-scenario only applies to -jobs runs")
	}
	if jobsSet {
		spec, err := bench.ParseJobSpec(*jobs)
		if err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
		spec.PoolWorkers = *jobsPool
		spec.NetWorkers = *workers
		spec.Cache = *jobsCache
		if *scenario != "" {
			spec.Scenario = *scenario
		}
		enc := json.NewEncoder(stdout)
		sum, err := bench.RunJobs(spec, func(r bench.Result) {
			// RunJobs serializes emit calls; stream each run as it finishes.
			if err := enc.Encode(r); err != nil {
				fmt.Fprintln(os.Stderr, "pabench: jobs:", err)
			}
		})
		if err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
		fmt.Fprintf(os.Stderr, "pabench: %d runs (%d reused, %d errors) in %s — %.1f runs/sec\n",
			sum.Runs, sum.Reused, sum.Errors, sum.Elapsed.Round(time.Millisecond), sum.RunsPerSec)
		if sum.Errors > 0 {
			return fmt.Errorf("jobs: %d of %d runs failed (see err fields in the output)", sum.Errors, sum.Runs)
		}
		return nil
	}
	if *sweep {
		table, err := bench.ScaleSweep(*seed, *sweepMax)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, table.Format())
		return nil
	}
	all := bench.Experiments()
	ids := make([]string, 0, len(all))
	for id := range all {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if *list {
		for _, id := range ids {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}
	want := ids
	if *exp != "" {
		want = strings.Split(*exp, ",")
	}
	for _, id := range want {
		fn, ok := all[strings.TrimSpace(id)]
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		table, err := fn(*seed)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		fmt.Fprintln(stdout, table.Format())
	}
	return nil
}
