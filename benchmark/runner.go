package main

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"shortcutpa/internal/bench"
	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
)

// fingerprint is what a protocol run must reproduce exactly: its costs and
// a digest of its output. testdata/golden.json holds one per input of the
// default seed.
type fingerprint struct {
	Rounds   int64  `json:"rounds"`
	Messages int64  `json:"messages"`
	Digest   string `json:"digest"`
}

// result collects one workload run.
type result struct {
	workload   string
	attempted  int
	failures   []string
	failedKeys map[string]bool

	setupS    []float64            // per timed set-up
	runS      []float64            // per timed protocol run
	runByKey  map[string][]float64 // per distinct input: its timed protocol runs
	wallByKey map[string][]float64 // per distinct input: wall seconds per protocol run, set-up included (serve-mix: per drain)
	refALU    []float64            // reference work timed before timed units
	refMap    []float64
	refAt     time.Time // when the last reference was timed
	heapMB    float64   // largest live heap held by a timed run's network and outputs (serve-mix: its cache)
	gcCPU     float64   // GC and user CPU seconds over the timed runs
	userCPU   float64
	overhead  []float64 // traced over untraced run time, per pair (trace mode)

	// perInput holds exact counts by metric name, once per distinct input;
	// perRun holds rates, once per timed run or drain.
	perInput map[string][]float64
	perRun   map[string][]float64
	seen     map[string]fingerprint // first outcome per input key
	golden   map[string]fingerprint // expected outcomes; nil checks nothing
	tr       *tracer
}

func newResult(workload string, golden map[string]fingerprint) *result {
	return &result{workload: workload, failedKeys: map[string]bool{}, runByKey: map[string][]float64{}, wallByKey: map[string][]float64{},
		perInput: map[string][]float64{}, perRun: map[string][]float64{}, seen: map[string]fingerprint{},
		golden: golden, tr: newTracer()}
}

// fail records a failure of the run (or step) named key.
func (r *result) fail(key, format string, args ...any) {
	r.failures = append(r.failures, key+": "+fmt.Sprintf(format, args...))
	r.failedKeys[key] = true
}

// failed counts the runs with at least one failure.
func (r *result) failed() int { return len(r.failedKeys) }

func (r *result) add(name string, v float64) { r.perRun[name] = append(r.perRun[name], v) }

// calibrate times the reference work before a timed unit, at most once per
// refEvery.
func (r *result) calibrate() {
	if time.Since(r.refAt) < refEvery {
		return
	}
	r.refALU = append(r.refALU, refALU())
	r.refMap = append(r.refMap, refMapWork())
	r.refAt = time.Now()
}

// refS is the run's reference time: the geometric mean of the two parts'
// medians.
func (r *result) refS() float64 {
	return math.Sqrt(median(r.refALU) * median(r.refMap))
}

// hostScale converts this run's seconds to seconds on the reference host.
func (r *result) hostScale() float64 {
	if len(r.refALU) == 0 {
		return 1
	}
	return refNominalS / r.refS()
}

// meanOfMedians is the mean over distinct inputs of each input's median
// time. Inputs of one workload can differ in cost by a factor of two or more
// (the deterministic MST's rounds are bimodal), so a median over all runs
// would jump between the modes from seed to seed, while this mean moves only
// as much as the mix of inputs does; the medians keep a slow spell of the
// host during some of an input's runs out of it.
func meanOfMedians(byKey map[string][]float64) float64 {
	var per []float64
	for _, k := range slices.Sorted(maps.Keys(byKey)) {
		per = append(per, median(byKey[k]))
	}
	return mean(per)
}

// record checks one completed run's fingerprint against the golden file and
// against earlier runs of the same input, and on an input's first run keeps
// its exact counts.
func (r *result) record(key string, fp fingerprint, counts map[string]float64) {
	if g, ok := r.golden[key]; ok && g != fp {
		r.fail(key, "got %+v, golden %+v", fp, g)
	}
	if first, ok := r.seen[key]; ok {
		if first != fp {
			r.fail(key, "rerun got %+v, first run %+v", fp, first)
		}
		return
	}
	r.seen[key] = fp
	for k, v := range counts {
		r.perInput[k] = append(r.perInput[k], v)
	}
}

// timed records one timed protocol run of input key, of runS seconds.
func (r *result) timed(key string, runS float64, rounds, msgs int64) {
	r.runS = append(r.runS, runS)
	r.runByKey[key] = append(r.runByKey[key], runS)
	r.add("congest.ns_per_round", ratio(runS*1e9, float64(rounds)))
	r.add("congest.ns_per_msg", ratio(runS*1e9, float64(msgs)))
}

// runtimeDelta records the runtime counters' change over timed work that
// completed runs protocol runs.
func (r *result) runtimeDelta(rt0, rt1 runtimeStats, runs int) {
	r.gcCPU += rt1.gcCPU - rt0.gcCPU
	r.userCPU += rt1.userCPU - rt0.userCPU
	r.add("runtime.alloc_mb", ratio(float64(rt1.allocBytes-rt0.allocBytes)/1e6, float64(runs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// loop drives a workload's units of work: an untimed warmup, then every
// unit once and again in turn until the time is up. In trace mode each unit
// runs twice, untraced and traced in alternating order, so the tracing
// overhead is measured on identical work.
func (r *result) loop(units int, seconds time.Duration, trace bool, warm func(), do func(i int, traced bool) float64) {
	warm()
	deadline := time.Now().Add(seconds)
	for i := 0; i < units || time.Now().Before(deadline); i++ {
		if !trace {
			do(i%units, false)
			continue
		}
		tracedFirst := i%2 == 1
		a := do(i%units, tracedFirst)
		b := do(i%units, !tracedFirst)
		if tracedFirst {
			a, b = b, a
		}
		r.overhead = append(r.overhead, ratio(b, a))
	}
}

// runBatch measures one batch workload.
func runBatch(w *batch, seed int64, seconds time.Duration, trace bool, golden map[string]fingerprint) *result {
	r := newResult(w.name, golden)
	r.loop(w.inputs, seconds, trace,
		func() { r.batchRun(w, inputSeed(seed, 0), false, false) },
		func(i int, traced bool) float64 { return r.batchRun(w, inputSeed(seed, i), true, traced) })
	return r
}

// batchRun sets up and runs one input, checks it, and records it. It
// returns the protocol run's seconds.
func (r *result) batchRun(w *batch, seed int64, timed, traced bool) float64 {
	key := fmt.Sprintf("%s/%d", w.name, seed)
	runtime.GC()
	if timed {
		r.calibrate()
	}
	tr := r.tr
	tr.on = traced
	tr.trace++
	r.attempted++
	var (
		in         *instance
		out        *outcome
		setup, run time.Duration
		rt0, rt1   runtimeStats
	)
	err := tr.span("run", nil, func() (err error) {
		t0 := time.Now()
		in = w.build(seed, tr)
		setup = time.Since(t0)
		rt0 = readRuntime()
		t1 := time.Now()
		out, err = w.run(in, tr)
		run = time.Since(t1)
		rt1 = readRuntime()
		return err
	})
	tr.on = false
	if err != nil {
		r.fail(key, "%v", err)
		return run.Seconds()
	}
	counts := runCounts(in, out)
	fp := fingerprint{int64(counts["congest.rounds"]), int64(counts["congest.msgs"]), out.digest}
	var heap float64
	if timed {
		heap = liveHeapMB()
		runtime.KeepAlive(in) // the network and the outputs count in the measurement
		runtime.KeepAlive(out)
	}
	if err := out.check(); err != nil {
		r.fail(key, "oracle: %v", err)
	}
	if timed {
		in, out = nil, nil // release the run's objects for the baseline
		r.heapMB = max(r.heapMB, heap-liveHeapMB())
		r.setupS = append(r.setupS, setup.Seconds())
		r.wallByKey[key] = append(r.wallByKey[key], (setup + run).Seconds())
		r.timed(key, run.Seconds(), fp.Rounds, fp.Messages)
		r.runtimeDelta(rt0, rt1, 1)
	}
	r.record(key, fp, counts)
	return run.Seconds()
}

// runCounts reads a finished run's exact counts: the network's totals and
// activity, its per-layer phase costs, its engine memory, and the
// workload's own counts.
func runCounts(in *instance, out *outcome) map[string]float64 {
	net, g := in.net, in.g
	tot := net.Total()
	stepped, sparse := net.ActivityStats()
	fp := net.MemFootprint()
	counts := map[string]float64{
		"rounds_ratio":           float64(tot.Rounds) / (float64(out.d) + math.Sqrt(float64(g.N()))),
		"msgs_ratio":             ratio(float64(tot.Messages), float64(g.M())),
		"congest.rounds":         float64(tot.Rounds),
		"congest.msgs":           float64(tot.Messages),
		"congest.stepped":        float64(stepped),
		"congest.awake_frac":     ratio(float64(stepped), float64(g.N())*float64(tot.Rounds)),
		"congest.sparse_frac":    ratio(float64(sparse), float64(tot.Rounds)),
		"congest.resident_mb":    float64(fp.Total()) / 1e6,
		"congest.bytes_per_slot": fp.BytesPerSlot(),
	}
	for _, l := range layers {
		counts[l+".rounds"], counts[l+".msgs"] = 0, 0
	}
	for _, ph := range net.Phases() {
		l := layerOf(ph.Name)
		counts[l+".rounds"] += float64(ph.Cost.Rounds)
		counts[l+".msgs"] += float64(ph.Cost.Messages)
	}
	for k, v := range out.counts {
		counts[k] = v
	}
	return counts
}

// layers are the phase-name prefixes of the protocol stack's modules, and
// "app" for every other phase: the application on top.
var layers = []string{"tree", "part", "subpart", "shortcut", "core", "app"}

func layerOf(phase string) string {
	prefix, _, _ := strings.Cut(phase, "/")
	if slices.Contains(layers[:len(layers)-1], prefix) {
		return prefix
	}
	return "app"
}

// runMix measures the serve-mix workload: the mix's protocols over its
// topologies and seeds, drained by the job runner with one pool worker.
// Each timed unit builds every topology of the drain cold (its set-up, as
// the job runner does on its cache misses) and then drains the queue, so
// set-up is sampled across the whole run, as for the batch workloads.
func runMix(graphs []bench.GraphSpec, seeds int, seed int64, seconds time.Duration, trace bool, golden map[string]fingerprint) *result {
	r := newResult("serve-mix", golden)
	tr := r.tr
	spec := bench.JobSpec{Protocols: mixProtocols, Graphs: graphs, PoolWorkers: 1, NetWorkers: 1}
	for i := range seeds {
		spec.Seeds = append(spec.Seeds, inputSeed(seed, i))
	}

	topoKey := func(family string, seed int64) string { return fmt.Sprintf("%s/%d", family, seed) }
	type shape struct {
		n, m int
		d    int64
	}
	shapes := map[string]shape{} // each topology's n, m and D, for the oracle and the ratios
	setup := func(timed, traced bool) {
		runtime.GC()
		if timed {
			r.calibrate()
		}
		tr.on = traced
		tr.trace++
		nets := map[string]*congest.Network{}
		t0 := time.Now()
		err := tr.span("setup", nil, func() error {
			for _, gs := range spec.Graphs {
				for _, s := range spec.Seeds {
					var g *graph.Graph
					if err := tr.span("graph.build", nil, func() (err error) {
						g, err = mixGraph(gs.Family, gs.N, s)
						return err
					}); err != nil {
						return err
					}
					_ = tr.span("congest.new_network", nil, func() error {
						nets[topoKey(gs.Family, s)] = congest.NewNetworkWorkers(g, s, 1)
						return nil
					})
				}
			}
			return nil
		})
		setupS := time.Since(t0).Seconds()
		tr.on = false
		if err != nil {
			r.attempted++
			r.fail("serve-mix/set-up", "%v", err)
			return
		}
		if timed {
			r.setupS = append(r.setupS, setupS)
		}
		for k, net := range nets {
			if _, ok := shapes[k]; !ok {
				shapes[k] = shape{n: net.N(), m: net.Graph().M(), d: engineD(net)}
			}
		}
	}

	drain := func(spec bench.JobSpec, timed, traced bool) float64 {
		var (
			results   []bench.Result
			heaps     []float64
			pauseWall time.Duration // spent between jobs, below
			pauseRT   runtimeStats
		)
		jobs := len(spec.Protocols) * len(spec.Graphs) * len(spec.Seeds)
		runtime.GC()
		tr.on = traced
		tr.trace++
		rt0 := readRuntime()
		t0 := time.Now()
		err := tr.span("bench.drain", nil, func() error {
			_, err := bench.RunJobs(spec, func(res bench.Result) {
				results = append(results, res)
				tr.add("bench."+res.Protocol, time.Duration(res.MS*1e6), res.Rounds, res.Messages)
				if timed {
					// A collection between runs, as for the batch workloads,
					// measures the live heap the warm-network cache holds.
					// The host reference is timed between jobs too, as often
					// as between the batch workloads' runs: a drain takes
					// seconds, and a reference per drain gave too few samples
					// to follow the host. Both are taken out of the drain.
					// The runtime's user CPU count moves only when a
					// collection ends, so the reference, run on this one
					// thread, is taken out of it by its wall time.
					t, rt := time.Now(), readRuntime()
					heaps = append(heaps, liveHeapMB())
					pauseRT.gcCPU += readRuntime().gcCPU - rt.gcCPU
					tRef := time.Now()
					r.calibrate()
					pauseRT.userCPU += time.Since(tRef).Seconds()
					pauseWall += time.Since(t)
				}
			})
			return err
		})
		wall := time.Since(t0) - pauseWall
		rt1 := readRuntime()
		rt1.gcCPU -= pauseRT.gcCPU
		rt1.userCPU -= pauseRT.userCPU
		tr.on = false
		base := liveHeapMB() // the drain's warm-network cache is gone now
		if err != nil {
			r.attempted++
			r.fail("serve-mix/drain", "%v", err)
			return wall.Seconds()
		}
		if len(results) != jobs {
			r.attempted++
			r.fail("serve-mix/drain", "%d of %d jobs reported", len(results), jobs)
		}
		reused := 0
		for _, res := range results {
			r.attempted++
			key := fmt.Sprintf("serve-mix/%s/%s/%d", res.Protocol, res.Family, res.Seed)
			sh, ok := shapes[topoKey(res.Family, res.Seed)]
			if res.Err != "" {
				r.fail(key, "%s", res.Err)
				continue
			}
			if !ok || sh.n != res.N {
				r.fail(key, "job ran on n=%d, the benchmark's rebuild has n=%d", res.N, sh.n)
				continue
			}
			if res.Reused {
				reused++
			}
			r.record(key, fingerprint{res.Rounds, res.Messages, res.Output}, map[string]float64{
				"rounds_ratio":   float64(res.Rounds) / (float64(sh.d) + math.Sqrt(float64(sh.n))),
				"msgs_ratio":     ratio(float64(res.Messages), float64(sh.m)),
				"congest.rounds": float64(res.Rounds),
				"congest.msgs":   float64(res.Messages),
			})
			if timed {
				r.timed(key, res.MS/1e3, res.Rounds, res.Messages)
			}
		}
		if timed && len(results) > 0 {
			r.wallByKey["drain"] = append(r.wallByKey["drain"], wall.Seconds()/float64(len(results)))
			r.heapMB = max(r.heapMB, slices.Max(heaps)-base)
			r.runtimeDelta(rt0, rt1, len(results))
			r.add("bench.reuse_frac", ratio(float64(reused), float64(len(results))))
		}
		return wall.Seconds()
	}

	warm := spec
	warm.Graphs, warm.Seeds = spec.Graphs[:1], spec.Seeds[:1]
	r.loop(1, seconds, trace,
		func() {
			setup(false, false)
			drain(warm, false, false)
		},
		func(_ int, traced bool) float64 {
			setup(true, traced)
			return drain(spec, true, traced)
		})
	return r
}
