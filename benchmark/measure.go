package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"shortcutpa/internal/congest"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// mean returns the arithmetic mean of xs; 0 for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones a reader recomputes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the distance between the first and third quartiles as a share
// of the median: the noise measure the bounds in BENCHMARK.json are held to.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// tailPercentile applies the reporting rule for latency tails: of the
// percentiles 99, 90 and 75 it returns the highest that has at least ten
// samples beyond it (nearest-rank), and ok=false when even p75 has fewer —
// then the median is the only timing the samples support.
func tailPercentile(xs []float64) (pct int, v float64, ok bool) {
	d := slices.Clone(xs)
	slices.Sort(d)
	for _, p := range []int{99, 90, 75} {
		rank := (p*len(d) + 99) / 100 // ceil(p/100 * n), 1-based
		if rank >= 1 && len(d)-rank >= 10 {
			return p, d[rank-1], true
		}
	}
	return 0, 0, false
}

// Neighbours on the shared host slow every run, by up to a factor of two
// for minutes at a time, and they slow integer work and memory-bound work
// by different amounts. So before its timed units a run times two fixed
// pieces of reference work, and reports every time scaled to a host that
// does them in refNominalS: the geometric mean of the two parts' medians,
// close to what the unloaded box the bounds were set on (one vCPU of a
// 2.0 GHz Intel Xeon) takes. That mean followed the deterministic MST and
// the power-law flood more closely than either part alone (README.md).
const refNominalS = 0.0055

// refEvery is the least time between two references, which keeps them to
// about a twentieth of a run.
const refEvery = 250 * time.Millisecond

var refSink uint64

// refALU times 2·10^6 xorshift steps: integer work touching no memory.
func refALU() float64 {
	t := time.Now()
	x := uint64(1)
	for range 2_000_000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink += x
	return time.Since(t).Seconds()
}

// refMap is refMapWork's table. It lives as long as the process and never
// grows, so the work allocates nothing and its time does not depend on the
// program's heap.
var refMap = make(map[int64]int64, 1<<17)

// refMapWork times 10^5 scattered updates of a 5 MB hash table: the
// cache-missing map work the protocols spend much of their time in.
func refMapWork() float64 {
	t := time.Now()
	clear(refMap)
	for i := range int64(100_000) {
		refMap[i*2654435761%1_000_003] += i
	}
	refSink += uint64(len(refMap))
	return time.Since(t).Seconds()
}

// runtimeStats is a snapshot of the Go runtime's cumulative counters, read
// from runtime/metrics around the benchmark's calls into the program.
type runtimeStats struct {
	allocBytes uint64  // heap bytes allocated since process start
	gcCPU      float64 // CPU seconds spent in the garbage collector
	userCPU    float64 // CPU seconds spent running Go code
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/user:cpu-seconds"},
}

func readRuntime() runtimeStats {
	metrics.Read(rtSamples)
	return runtimeStats{
		allocBytes: rtSamples[0].Value.Uint64(),
		gcCPU:      rtSamples[1].Value.Float64(),
		userCPU:    rtSamples[2].Value.Float64(),
	}
}

var liveSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveHeapMB forces a collection and returns the bytes of the objects it
// found reachable, in MB. Unlike the heap's in-use spans this counts only
// live objects, so it does not move with fragmentation.
func liveHeapMB() float64 {
	runtime.GC()
	metrics.Read(liveSample)
	return float64(liveSample[0].Value.Uint64()) / 1e6
}

// span is one timed call into a layer of the program, recorded by the
// benchmark around that call. Spans of one protocol run share a trace id;
// a run's root span has parent -1.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Network cost totals at the span's end, and heap bytes allocated
	// inside it: the counts taken at this layer boundary.
	Rounds     int64  `json:"rounds"`
	Messages   int64  `json:"messages"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// tracer keeps spans in memory until the benchmark ends. A disabled tracer
// only calls the wrapped function, so untraced runs pay nothing for it.
type tracer struct {
	on    bool
	t0    time.Time
	trace int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span runs f as a span named name under the innermost open span. net, if
// not nil, supplies the cost totals recorded at the span's end.
func (t *tracer) span(name string, net *congest.Network, f func() error) error {
	if !t.on {
		return f()
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Trace: t.trace, ID: id, Parent: t.parent(), Name: name})
	t.open = append(t.open, id)
	a0 := readRuntime().allocBytes
	start := time.Since(t.t0)
	err := f()
	end := time.Since(t.t0)
	a1 := readRuntime().allocBytes
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.Start, s.End, s.AllocBytes = int64(start), int64(end), a1-a0
	if net != nil {
		tot := net.Total()
		s.Rounds, s.Messages = tot.Rounds, tot.Messages
	}
	return err
}

// add records a span measured elsewhere: a served job whose duration the
// job runner reports, ending now.
func (t *tracer) add(name string, dur time.Duration, rounds, msgs int64) {
	if !t.on {
		return
	}
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{Trace: t.trace, ID: len(t.spans), Parent: t.parent(), Name: name,
		Start: int64(end - dur), End: int64(end), Rounds: rounds, Messages: msgs})
}

// parent is the innermost open span, or -1.
func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// layerTime is one span name's time, per trace: the spans' total duration
// and their self time (duration minus the part covered by child spans).
type layerTime struct {
	name        string
	total, self []float64 // seconds, one entry per trace that has the span
	allocMB     []float64
}

// layerTimes groups the recorded spans by name, in order of first
// appearance, summing within each trace.
func (t *tracer) layerTimes() []*layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type key struct {
		name  string
		trace int
	}
	var order []*layerTime
	byName := map[string]*layerTime{}
	idx := map[key]int{}
	for i, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			byName[s.Name] = lt
			order = append(order, lt)
		}
		k := key{s.Name, s.Trace}
		j, ok := idx[k]
		if !ok {
			j = len(lt.total)
			idx[k] = j
			lt.total = append(lt.total, 0)
			lt.self = append(lt.self, 0)
			lt.allocMB = append(lt.allocMB, 0)
		}
		d := s.End - s.Start
		lt.total[j] += float64(d) / 1e9
		lt.self[j] += float64(d-child[i]) / 1e9
		lt.allocMB[j] += float64(s.AllocBytes) / 1e6
	}
	return order
}
