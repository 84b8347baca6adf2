package congest

import "slices"

// The parallel engine executes the same round structure as the sequential
// one, but shards node stepping across a persistent worker pool.
// Determinism is preserved by construction:
//
//   - each node is stepped by exactly one worker, so per-node state
//     and per-node PRNG streams are touched by a single goroutine;
//   - Send writes straight into the receiver-side edge slot. Every slot is
//     owned by exactly one (sender, port) pair, so workers write disjoint
//     memory and the old per-sender outbox + sender-index merge pass does
//     not exist: delivery order is reconstructed structurally by ForRecv's
//     neighbor-ordered slot walk, on either engine;
//   - the wake stamps a sequential Send writes inline need a single writer
//     per receiver; with concurrent senders they are derived instead in a
//     second barrier phase after stepping: every worker scans the freshly
//     stamped slots of its own receiver shard and stamps those receivers.
//     Writes stay disjoint (each worker stamps only its shard), reads see
//     every worker's sends (the coordinator's done/start handoffs order
//     them), and the coordinator keeps no O(n+2m) serial section — its
//     per-round serial work is O(workers) channel operations.
//
// The result is bit-identical to the sequential engine: same outputs, same
// Rounds/Messages, same PRNG streams.
//
// The pool itself is job-generic: a wave hands every worker the same
// func(i) and barriers on their reports. The round loop runs its two waves
// (step, wake scan) through it, and NewNetwork reuses the identical
// machinery to shard the one-time slot-geometry fill (fillGeometryParallel)
// instead of growing a second pool implementation.

// job is one wave's work for worker i: process shard i, report counters.
// Waves barrier on all workers, so a job must touch only shard-i state (or
// read-only shared state) — the same discipline the round waves follow.
type job func(i int) shardDone

// shardDone is one worker's end-of-wave report: how many messages its
// nodes sent, how many of them stepped active, how many stepped at all
// (the awake% counter), whether the shard's frontier recording overflowed
// its cap (forcing the next round dense), and a recovered protocol panic
// if any. Waves that only mutate shard state report zeroes.
type shardDone struct {
	sent    int64
	active  int64
	stepped int64
	over    bool
	rec     any
}

// pool is a worker pool of parked goroutines: workers park between waves
// on their start channel rather than being respawned (phases run for
// thousands of rounds). The start/done channel handoffs also establish the
// happens-before edges between a wave's shard writes and the next wave's
// reads — the ordering both the wake scan and the geometry fill's
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

// wave runs one job on every worker and blocks until all report,
// accumulating the reports (counters summed, overflow flags ORed). The
// first recovered panic is re-raised on the caller's goroutine, after the
// barrier, exactly as the sequential engine would surface it.
func (p *pool) wave(j job) (sum shardDone) {
	for _, ch := range p.start {
		ch <- j
	}
	for range p.start {
		res := <-p.done
		sum.sent += res.sent
		sum.active += res.active
		sum.stepped += res.stepped
		sum.over = sum.over || res.over
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

// shardBlock returns worker i's contiguous block [lo, hi) of a uniform
// node-count split of n items into k shards. The split is floor division
// (lo = i*n/k), so blocks are contiguous, cover [0, n) exactly, and their
// sizes differ by at most one node — the remainder n mod k is spread one
// node apiece over the blocks, not piled on the last; with k > n exactly
// n blocks hold one node and the rest are empty, and n = 0 yields k empty
// blocks (shard_test.go pins this contract). Contiguity makes every
// per-node array (active, wakeNext, ...) write in disjoint
// cache-line ranges per worker.
//
// The engine's waves no longer shard on this uniform split — equal node
// counts serialize a worker on any hub-heavy family — but it remains the
// baseline the shard-balance metric compares against (NodeRangeBounds)
// and the item split for weightless work.
func shardBlock(i, k, n int) (lo, hi int) {
	return i * n / k, (i + 1) * n / k
}

// shardCtx is one worker's phase-lifetime Ctx, message counter, and
// frontier-list lengths. Each is a separate heap object, padded past a
// cache line, so two workers' ctx.v and sent stores (written on every node
// step) never share a line. The list lengths follow the same ownership as
// the lists they measure: nActCur/nActNext and nDirty are written only by
// the owning worker during a wave, nWokeCur/nWokeNext only by the
// coordinator between waves (the merge), with the wave barrier ordering
// the handoffs.
type shardCtx struct {
	ctx       Ctx
	sent      int64
	nActCur   int32 // entries in this shard's current active-frontier segment
	nActNext  int32 // entries appended to the next segment this round
	nWokeCur  int32 // entries in this shard's current woken-frontier segment
	nWokeNext int32 // entries the coordinator merge appended for next round
	nDirty    int32 // receivers recorded in this worker's dirty segment (counts past the cap on overflow)
	_         [96]byte
}

func (st *runState) ensurePool() {
	if st.pool != nil {
		return
	}
	st.pool = newPool(st.workers)
	// Edge-balanced shard boundaries, one binary-search pass per phase at
	// most (the network caches the plan per worker count; see shard.go).
	plan := st.net.shardPlan(st.workers)
	st.stepBounds, st.slotBounds = plan.step, plan.slot
	// The sender-side dirty buffer: one int32 per slot, segmented below by
	// each worker's half-edge span (a worker's sends never exceed its
	// span, so a segment can never be short — only its frontierCap prefix
	// is recorded, the rest is declared overflow). Allocated on the first
	// parallel phase of the network's life and reused forever; sequential
	// networks never pay it. The atomic flag publishes the slice header
	// for MemFootprint, which may read concurrently with a phase.
	b := st.engineBuffers
	if b.dirty == nil {
		b.dirty = make([]int32, b.slots)
		b.dirtyReady.Store(true)
	}
	// Per-worker Ctxs, hoisted to phase setup: a per-wave Ctx (and its
	// escaping sent counter) would cost two allocations per worker per
	// round — the parallel engine's last per-round allocations.
	rs := st.net.csr.RowStart
	st.shardCtxs = make([]*shardCtx, st.workers)
	for i := range st.shardCtxs {
		sc := &shardCtx{}
		base := int(rs[st.stepBounds[i]])
		span := int(rs[st.stepBounds[i+1]]) - base
		seg := b.dirty[base : base+frontierCap(span, st.denseOnly)]
		sc.ctx = Ctx{st: st, sent: &sc.sent, dirty: seg, nd: &sc.nDirty}
		st.shardCtxs[i] = sc
	}
	// The two round waves are hoisted closures: allocating them per round
	// would put the coordinator back on the per-round allocation budget the
	// flat engine is designed to keep at zero.
	st.stepJob = st.stepShard
	st.scanJob = func(i int) shardDone {
		st.scanShard(i)
		return shardDone{}
	}
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

// stepShard steps worker i's nodes and reports its message, active, and
// stepped counts. Its block comes from the sender-weighted edge-balanced
// boundaries (mass = 1 + deg), so a hub's send work does not serialize a
// worker that also owns an equal count of other nodes. Dense rounds scan
// the whole block; sparse rounds drain the shard's segment of the frontier
// lists (sorting the woken segment first — it was appended by the
// coordinator merge in wakeNext-stamp order, and the drain needs ascending
// node order). Either way the shard's next active segment is appended and
// its length published for the next round.
func (st *runState) stepShard(i int) (res shardDone) {
	lo, hi := int(st.stepBounds[i]), int(st.stepBounds[i+1])
	sc := st.shardCtxs[i]
	sc.sent = 0
	actNext := st.factNext[lo : lo+frontierCap(hi-lo, st.denseOnly)]
	if st.dense {
		res.active, res.stepped = st.stepRange(&sc.ctx, lo, hi, actNext)
	} else {
		woke := st.fwokeCur[lo : lo+int(sc.nWokeCur)]
		slices.Sort(woke)
		act := st.factCur[lo : lo+int(sc.nActCur)]
		res.active, res.stepped = st.stepFrontier(&sc.ctx, act, woke, actNext)
	}
	sc.nActNext = int32(min(res.active, int64(len(actNext))))
	res.over = res.active > int64(len(actNext))
	res.sent = sc.sent
	return res
}

// mergeDirty is the sparse wake derivation: the coordinator walks every
// worker's dirty segment (the receivers of this round's slot writes, in
// send order), stamps each first-seen receiver's wakeNext — exactly the
// stamp the scan wave would derive, deduplicated by the stamp itself — and
// appends it to the receiver shard's woken-frontier segment for next
// round's drain. Runs between waves, so it is the single wakeNext writer;
// cost is O(delivered), the whole point. Returns whether any woken segment
// overflowed its cap (the entry is dropped but still stamped, and the next
// round falls back dense, so nothing is lost).
//
// Callers must ensure no dirty segment itself overflowed (nDirty past the
// segment length) before merging: an overflowed segment is missing
// receivers, and the scan wave is the fallback that derives their stamps.
func (st *runState) mergeDirty() (overflow bool) {
	b := st.engineBuffers
	snow := st.snow
	sb := st.stepBounds
	rs := st.net.csr.RowStart
	k := len(st.shardCtxs)
	for w := 0; w < k; w++ {
		sc := st.shardCtxs[w]
		nd := int(sc.nDirty)
		if nd == 0 {
			continue
		}
		seg := b.dirty[rs[sb[w]]:]
		for _, to := range seg[:nd] {
			if b.wakeNext[to] != snow {
				b.wakeNext[to] = snow
				// Receiver to's shard: the unique i with sb[i] <= to < sb[i+1].
				// Hand-rolled binary search — a sort.Search closure here would
				// put an allocation back in the steady-state round loop.
				lo, hi := 0, k-1
				for lo < hi {
					mid := int(uint(lo+hi) >> 1)
					if sb[mid+1] > to {
						hi = mid
					} else {
						lo = mid + 1
					}
				}
				tc := st.shardCtxs[lo]
				slo, shi := int(sb[lo]), int(sb[lo+1])
				if int(tc.nWokeNext) < frontierCap(shi-slo, st.denseOnly) {
					st.fwokeNext[slo+int(tc.nWokeNext)] = to
				} else {
					overflow = true
				}
				tc.nWokeNext++
			}
		}
	}
	return overflow
}

// scanShard is the second barrier phase of a parallel round: worker i
// stamps each node of its own shard that received a delivery this round, by
// scanning the node's freshly written slot stamps. Receiver-sharded, so the
// wakeNext writes are disjoint across workers; the stamps read were written
// by all workers during the step phase, ordered by the coordinator's
// barrier in between.
// Receiver-slot-weighted boundaries: the scan's cost is the slots walked,
// so blocks hold equal slot mass, not equal node counts.
func (st *runState) scanShard(i int) {
	lo, hi := int(st.slotBounds[i]), int(st.slotBounds[i+1])
	rs := st.net.csr.RowStart
	snow := st.snow
	for v := lo; v < hi; v++ {
		for h := rs[v]; h < rs[v+1]; h++ {
			if st.nextStamp[h] == snow {
				st.wakeNext[v] = snow
				break
			}
		}
	}
}

// stepParallel runs one synchronous round on the worker pool and returns
// the number of messages sent.
func (st *runState) stepParallel() int64 {
	st.started = true
	// Stamp-epoch renormalization and fault application both run on the
	// coordinator before the step wave starts — the identical boundary the
	// sequential engine uses — so every worker observes the same stamps
	// and crashed/dead state for the whole round and the in-flight
	// deliveries a fault destroys are gone on both engines.
	if st.snow >= stampRenormThreshold {
		st.renormStamps()
	}
	st.applyFaults()
	st.ensurePool()
	if !st.dense {
		st.net.sparseRounds++
	}
	res := st.pool.wave(st.stepJob)
	st.activeCount = res.active
	st.net.stepped += res.stepped
	overflow := res.over
	// Wake derivation. The sequential engine writes no wake stamps when
	// nothing was sent, so skipping everything on sent == 0 is exact (the
	// empty woken lists are then complete, not stale). Otherwise: if every
	// worker's dirty segment held all its receivers, the coordinator merge
	// stamps and enqueues them in O(delivered); if any segment overflowed
	// its cap, fall back to the classic slot-scan wave — it derives the
	// same stamps from the slots themselves, but builds no woken lists, so
	// the next round is dense. The caps make that fallback cheap to reach:
	// a worker stops appending after ~span/8 entries, so a storm round
	// pays O(cap) recording on top of the scan it was already doing.
	if res.sent > 0 {
		dirtyOver := false
		rs := st.net.csr.RowStart
		for w, sc := range st.shardCtxs {
			span := int(rs[st.stepBounds[w+1]]) - int(rs[st.stepBounds[w]])
			if int(sc.nDirty) > frontierCap(span, st.denseOnly) {
				dirtyOver = true
				break
			}
		}
		if dirtyOver {
			st.pool.wave(st.scanJob)
			overflow = true
		} else if st.mergeDirty() {
			overflow = true
		}
	}
	// Retire this round's recording state: dirty counters restart, each
	// shard's next-lists become its current lists. With the active count
	// summed per shard above and quiescence read off it, the coordinator's
	// serial work this round was O(workers + delivered) — no per-node or
	// per-slot serial pass anywhere.
	for _, sc := range st.shardCtxs {
		sc.nDirty = 0
		sc.nActCur, sc.nActNext = sc.nActNext, 0
		sc.nWokeCur, sc.nWokeNext = sc.nWokeNext, 0
	}
	st.flip()
	st.dense = st.denseOnly || overflow
	st.inFlight = res.sent
	st.round++
	st.snow++
	return res.sent
}

// minParallelFillNodes gates the sharded geometry fill: below this the
// whole fill costs less than spinning up a pool.
const minParallelFillNodes = 1 << 14

// fillGeometryParallel is the sharded slot-geometry fill: the same
// destSlot/portSlot tables the sequential pass in fillGeometry produces,
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
// half-edge, portSlot by the receiver half-edge paired to it — a
// bijection), and the wave barriers order count → prefix → place.
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
	bounds := n.shardPlan(workers).slot
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
				n.portSlot[rs[v]+n.csr.PortRev[h]] = slot
				n.slotPort[slot] = n.csr.PortRev[h]
			}
		}
		return shardDone{}
	})
}
