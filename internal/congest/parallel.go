package congest

// The parallel engine executes the same round structure as the sequential
// one, but shards node stepping across a persistent worker pool.
// Determinism is preserved by construction:
//
//   - each node is stepped by exactly one worker, so per-node state
//     and per-node PRNG streams are touched by a single goroutine;
//   - Send writes the message into its worker's own send log and the stamp
//     and log reference straight into the receiver-side edge slot. Every
//     slot is owned by exactly one (sender, port) pair, so workers write
//     disjoint memory and the old per-sender outbox + sender-index merge
//     pass does not exist: delivery order is reconstructed structurally by
//     ForRecv's neighbor-ordered slot walk, on either engine. A log's
//     contents depend on the worker count, but a delivery reads only the
//     entry its slot's ref names, so what is delivered does not;
//   - the scheduling bitsets split by word: step-shard boundaries are
//     multiples of 64 nodes (shard.go), so each worker drains and zeroes
//     only its own act/woke words and writes only its own actNext words,
//     with plain writes. The shared writes are a receiver's wokeNext bit,
//     which any sender may target, and the summary bits, whose words span
//     4096 nodes: Ctx.mark tests them with an atomic load and sets them
//     with an atomic OR, so concurrent writers to one word never lose a
//     bit, and a bit already set costs no read-modify-write at all;
//   - there is no second wave: the woken set is complete when the step
//     wave's barrier returns, and the coordinator's per-round serial work
//     is O(workers) channel operations.
//
// The result is bit-identical to the sequential engine: same outputs, same
// Rounds/Messages, same PRNG streams.
//
// The pool itself is job-generic: a wave hands every worker the same
// func(i) and barriers on their reports. The round loop runs its step wave
// through it, and NewNetwork reuses the identical machinery to shard the
// one-time slot-geometry fill (fillGeometryParallel) instead of growing a
// second pool implementation.

// job is one wave's work for worker i: process shard i, report counters.
// Waves barrier on all workers, so a job must touch only shard-i state (or
// read-only shared state) — the same discipline the round waves follow.
type job func(i int) shardDone

// shardDone is one worker's end-of-wave report: how many messages its
// nodes sent, how many of them stepped active, how many stepped at all
// (the awake% counter), and a recovered protocol panic if any. Waves that
// only mutate shard state report zeroes.
type shardDone struct {
	sent    int64
	active  int64
	stepped int64
	rec     any
}

// pool is a worker pool of parked goroutines: workers park between waves
// on their start channel rather than being respawned (phases run for
// thousands of rounds). The start/done channel handoffs also establish the
// happens-before edges between a wave's shard writes and the next wave's
// reads — the ordering the round flip and the geometry fill's
// count → prefix → place pipeline rely on.
type pool struct {
	start []chan job
	done  chan shardDone // one report per worker per wave
}

// newPool starts k parked workers. Every job runs under a recover so a
// panic inside a shard (a protocol model violation) is reported, not lost
// to a dead goroutine; wave re-raises it on the coordinator.
func newPool(k int) *pool {
	p := &pool{done: make(chan shardDone, k)}
	for i := 0; i < k; i++ {
		ch := make(chan job, 1)
		p.start = append(p.start, ch)
		go func(i int) {
			for j := range ch {
				p.done <- runShard(j, i)
			}
		}(i)
	}
	return p
}

// runShard runs one worker's share of a wave, converting a panic into a
// report the coordinator re-raises.
func runShard(j job, i int) (res shardDone) {
	defer func() {
		if r := recover(); r != nil {
			res.rec = r
		}
	}()
	return j(i)
}

// wave runs one job on every worker and blocks until all report, summing
// their counters. The first recovered panic is re-raised on the caller's
// goroutine, after the barrier, exactly as the sequential engine would
// surface it.
func (p *pool) wave(j job) (sum shardDone) {
	for _, ch := range p.start {
		ch <- j
	}
	for range p.start {
		res := <-p.done
		sum.sent += res.sent
		sum.active += res.active
		sum.stepped += res.stepped
		if res.rec != nil && sum.rec == nil {
			sum.rec = res.rec
		}
	}
	if sum.rec != nil {
		panic(sum.rec)
	}
	return sum
}

// close releases the pool's workers.
func (p *pool) close() {
	for _, ch := range p.start {
		close(ch)
	}
}

// RunPool runs fn(w) for w = 0..k-1 on the job-generic worker pool and
// blocks until every worker returns. It is the exported face of the same
// machinery the round waves and the parallel geometry fill run on, for
// callers that want to drain their own work queue over pooled goroutines
// (the internal/bench job runner shards a multi-run serving queue this
// way). A panic inside any fn is re-raised on the caller's goroutine after
// the barrier, exactly as a protocol panic inside a round wave would be.
// k <= 1 calls fn(0) inline — no goroutines, same contract.
func RunPool(k int, fn func(worker int)) {
	if k <= 1 {
		fn(0)
		return
	}
	p := newPool(k)
	defer p.close()
	p.wave(func(i int) shardDone {
		fn(i)
		return shardDone{}
	})
}

// shardCtx is one worker's phase-lifetime Ctx and message counter. Each is
// a separate heap object, padded past a cache line, so two workers'
// ctx.v and sent stores (written on every node step) never share a line.
type shardCtx struct {
	ctx  Ctx
	sent int64
	_    [96]byte
}

func (st *runState) ensurePool() {
	if st.pool != nil {
		return
	}
	st.pool = newPool(st.workers)
	// Sender-weighted edge-balanced shard boundaries, one binary-search
	// pass per phase (shard.go); interior ones rounded down to whole
	// 64-node bitset words.
	st.stepBounds = EdgeBalancedBounds(st.net.csr.RowStart, st.workers, 1)
	for w := 1; w < st.workers; w++ {
		st.stepBounds[w] &^= 63
	}
	// Per-worker Ctxs, hoisted to phase setup: a per-wave Ctx (and its
	// escaping sent counter) would cost two allocations per worker per
	// round. The step wave is a hoisted closure for the same reason.
	// Their WakeAt buffers and send logs live in the engine buffers, so
	// their capacity outlives the phase. A worker's send log is bounded by
	// the half-edges of its node block, the most messages its nodes can
	// send in a round.
	b := st.engineBuffers
	for len(b.shardWakes) < st.workers {
		b.shardWakes = append(b.shardWakes, nil)
	}
	rs := st.net.csr.RowStart
	st.shardCtxs = make([]*shardCtx, st.workers)
	for i := range st.shardCtxs {
		b.logs[i].bound = rs[st.stepBounds[i+1]] - rs[st.stepBounds[i]]
		sc := &shardCtx{}
		sc.ctx = Ctx{st: st, sent: &sc.sent, shared: true, pend: &b.shardWakes[i], log: &b.logs[i]}
		st.shardCtxs[i] = sc
	}
	st.stepJob = st.stepShard
}

// close releases the pool's workers; runs are resumable afterwards only via
// a new runState.
func (st *runState) close() {
	if st.pool == nil {
		return
	}
	st.pool.close()
	st.pool = nil
}

// stepShard drains worker i's bitset words and reports its message,
// active, and stepped counts. Its node block comes from the
// sender-weighted edge-balanced boundaries (mass = 1 + deg), so a hub's
// send work does not serialize a worker that also owns an equal count of
// other nodes; every interior boundary is a multiple of 64, so the block
// is exactly the words [lo/64, ceil(hi/64)) and no word has two owners.
func (st *runState) stepShard(i int) (res shardDone) {
	lo, hi := int(st.stepBounds[i]), int(st.stepBounds[i+1])
	sc := st.shardCtxs[i]
	sc.sent = 0
	res.active, res.stepped = st.drain(&sc.ctx, lo>>6, (hi+63)>>6)
	res.sent = sc.sent
	return res
}

// stepParallel runs one synchronous round on the worker pool and returns
// the number of messages sent.
func (st *runState) stepParallel() int64 {
	st.beginRound()
	st.ensurePool()
	res := st.pool.wave(st.stepJob)
	st.flushShardWakes()
	return st.endRound(res.active, res.stepped, res.sent)
}

// minParallelFillNodes gates the sharded geometry fill: below this the
// whole fill costs less than spinning up a pool.
const minParallelFillNodes = 1 << 14

// fillGeometryParallel is the sharded slot-geometry fill: the same
// destSlot/slotPort tables the sequential pass in fillGeometry produces,
// computed in three waves on a temporary pool. The sequential pass is a
// running-counter scan (slot of half-edge u→v is RowStart[v] + how many
// half-edges into v precede it in ascending sender order), which
// parallelizes by splitting that count per sender shard:
//
//	count:  worker w counts, per receiver v, the half-edges into v from
//	        its own sender block — cnt[w][v], disjoint by w.
//	prefix: worker w, now sharded by receiver, converts each of its
//	        receivers' count columns to exclusive prefix sums — cnt[w][v]
//	        becomes the fill offset where sender block w starts in v's
//	        slot range. Disjoint by v.
//	place:  worker w rescans its sender block in ascending order, placing
//	        half-edge u→v at RowStart[v] + cnt[w][v]++ — per-shard fill
//	        counters, advanced exactly as the sequential scan would.
//
// Every slot value equals the sequential pass's: sender blocks are
// ascending and contiguous, so block-w-start + within-block-rank is the
// global ascending-sender rank. Writes are disjoint (destSlot by sender
// half-edge, slotPort by the slot it assigns — a bijection), and the wave
// barriers order count → prefix → place.
//
// All three waves shard on the receiver-slot-weighted edge-balanced
// boundaries (shard.go): every wave's cost is the half-edges it touches,
// so the same hub that would serialize a step worker would serialize the
// fill's count and place waves under a uniform node split. The slot-value
// argument above needs only contiguous ascending sender blocks, which any
// boundary array provides; the prefix wave may use any receiver partition
// and reuses the same one.
func (n *Network) fillGeometryParallel(workers int) {
	nodes := n.N()
	rs := n.csr.RowStart
	bounds := EdgeBalancedBounds(rs, workers, 0)
	cnt := make([]int32, workers*nodes) // cnt[w*nodes+v]
	p := newPool(workers)
	defer p.close()
	p.wave(func(w int) shardDone {
		row := cnt[w*nodes : (w+1)*nodes]
		lo, hi := int(bounds[w]), int(bounds[w+1])
		for h := rs[lo]; h < rs[hi]; h++ {
			row[n.csr.PortTo[h]]++
		}
		return shardDone{}
	})
	p.wave(func(w int) shardDone {
		lo, hi := int(bounds[w]), int(bounds[w+1])
		for v := lo; v < hi; v++ {
			var off int32
			for w2 := 0; w2 < workers; w2++ {
				c := cnt[w2*nodes+v]
				cnt[w2*nodes+v] = off
				off += c
			}
		}
		return shardDone{}
	})
	p.wave(func(w int) shardDone {
		row := cnt[w*nodes : (w+1)*nodes]
		lo, hi := int(bounds[w]), int(bounds[w+1])
		for u := lo; u < hi; u++ {
			for h := rs[u]; h < rs[u+1]; h++ {
				v := n.csr.PortTo[h]
				slot := rs[v] + row[v]
				row[v]++
				n.destSlot[h] = slot
				n.slotPort[slot] = n.csr.PortRev[h]
			}
		}
		return shardDone{}
	})
}
