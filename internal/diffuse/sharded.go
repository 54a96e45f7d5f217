package diffuse

import (
	"fmt"
	"sync/atomic"

	"diffusearch/internal/graph"
	"diffusearch/internal/randx"
	"diffusearch/internal/vecmath"
)

// This file extends the PR-1 residual-driven engine to partitioned graphs:
// the overlay is split into per-shard CSRs (graph.ShardSet) and the shards
// diffuse concurrently on a worker pool, with residual hand-off across
// boundary edges. Each shard keeps its own frontier and CSR-aligned
// per-edge push state; a commit-phase send whose receiver lives in another
// shard lands in a per-worker cross-shard mailbox that is flushed into the
// owner shard's next frontier between rounds. Global quiescence is the same
// pending-counter criterion as the single-CSR engine: a round that
// re-queues nobody (across all shards) means every receiver's pending
// incoming influence is below tol/4 for every column.
//
// Because shard rows are verbatim copies of the full CSR rows (identical
// edge order, identical kernels) and the per-edge thresholds are computed
// from the same global weights, the frontier evolution and every update are
// bit-for-bit identical to ParallelColumns regardless of the shard count,
// worker count, or partitioning strategy — sharding changes where the work
// runs, never what is computed.

// RunSharded dispatches one column-blocked diffusion over a partitioned
// graph. The Parallel and Sync engines diffuse the shards concurrently on
// pool (nil creates a private pool for the call); the Asynchronous engine
// is a sequential reference by definition, so it runs on the full CSR and
// reports no cross-shard traffic. seed feeds the Asynchronous schedule as
// in RunSignal.
func RunSharded(e Engine, ss *graph.ShardSet, sig *Signal, p Params, seed uint64, pool *Pool) (*Signal, Stats, error) {
	switch e {
	case EngineAsynchronous:
		return AsynchronousColumns(ss.Transition(), sig, p, randx.Derive(seed, "diffuse", "async"))
	case EngineParallel:
		return ShardedParallelColumns(ss, sig, p, pool)
	case EngineSync:
		return ShardedSynchronousColumns(ss, sig, p, pool)
	case EngineParallelGS:
		// The multi-color schedule is global by construction (a class
		// barrier spans every shard), so the sharded deployment story is
		// block Jacobi across boundaries. Here GS runs on the full CSR —
		// exact, deterministic, and reporting no cross-shard traffic —
		// the same fallback shape as the Asynchronous reference above.
		return ParallelGSColumns(ss.Transition(), sig, p)
	}
	return nil, Stats{}, fmt.Errorf("diffuse: unknown engine %d", int(e))
}

// shardSlot is the per-worker scratch of a sharded round: counters and one
// next-frontier mailbox per destination shard (local indices in the
// destination's numbering). Mailboxes are merged into the per-shard
// frontiers by the coordinator between rounds, so workers never contend on
// a shared frontier.
type shardSlot struct {
	next     [][]int // dest shard -> local indices queued for its next frontier
	updates  int64
	messages int64
	cross    int64
}

// shardPushState precomputes one shard's CSR-aligned per-edge push
// thresholds (plus a zeroed staleness accumulator), using the same
// receiver-aware budget formula as the single-CSR pushState — the
// thresholds depend only on global weights and degrees, so sharding leaves
// them unchanged.
func shardPushState(ss *graph.ShardSet, sh *graph.TransitionShard, pushTol, alpha float64) (thr, stale []float64) {
	tr := ss.Transition()
	g := tr.Graph()
	thr = make([]float64, sh.NumEntries())
	stale = make([]float64, sh.NumEntries())
	for i := 0; i < sh.Len(); i++ {
		u := sh.Node(i)
		base := sh.RowStart(i)
		for j, v := range sh.Neighbors(i) {
			thr[base+j] = pushThreshold(tr, g, u, v, pushTol, alpha)
		}
	}
	return thr, stale
}

// ShardedParallelColumns diffuses a column block over a partitioned graph
// with the residual-driven frontier engine: per-shard frontiers advance
// concurrently on the pool, boundary sends hand residual influence to the
// neighbouring shard through mailboxes flushed between rounds, and the run
// converges when no shard re-queues anybody. Results are bit-for-bit
// identical to ParallelColumns on the full CSR (see the file comment);
// Stats additionally reports CrossMessages, the sends that crossed a shard
// boundary — the traffic a distributed deployment would put on the wire.
func ShardedParallelColumns(ss *graph.ShardSet, sig *Signal, p Params, pool *Pool) (*Signal, Stats, error) {
	n, _, err := checkSignal(ss.Transition(), sig, p)
	if err != nil {
		return nil, Stats{}, err
	}
	tol, maxRounds := p.controls()
	pushTol := tol / 4
	if pool == nil {
		pool = NewPool(p.Workers)
		defer pool.Close()
	}
	slots := clampWorkers(pool.Workers(), n)
	// One tile: the sharded orders parallelize over rows and ignore ColTile.
	r := newSweepRun(sig, []int{sig.Columns()}, slots, true)
	part := ss.Partition()
	k := ss.NumShards()
	resid := make([]float64, n)
	queued := make([]atomic.Bool, n)
	frontiers := make([][]int, k) // local indices per shard
	edgeThr := make([][]float64, k)
	edgeStale := make([][]float64, k)
	for s := 0; s < k; s++ {
		sh := ss.Shard(s)
		f := make([]int, sh.Len())
		for i := range f {
			f[i] = i
		}
		frontiers[s] = f
		edgeThr[s], edgeStale[s] = shardPushState(ss, sh, pushTol, p.Alpha)
	}
	slotsState := make([]shardSlot, slots)
	for i := range slotsState {
		slotsState[i].next = make([][]int, k)
	}
	var cursor atomic.Int64
	cum := make([]int, k+1)

	// Bootstrap accounting, as in ParallelColumns: every node announces its
	// signal to its neighbourhood; announcements over boundary edges cross
	// shards.
	r.st.Messages = 2 * int64(ss.Transition().Graph().NumEdges())
	r.st.CrossMessages = int64(ss.CrossEntries())
	return r.drive(p, pushTol, maxRounds, func() (int, bool) {
		t := r.live[0]
		for s := 0; s < k; s++ {
			cum[s+1] = cum[s] + len(frontiers[s])
		}
		visited := cum[k]
		fullRound := visited == n

		// Compute phase: per frontier node, one fused shard-CSR pass
		// advances all active columns (reads cur globally, writes only the
		// node's own next row and resid slot — no conflicts across shards).
		cursor.Store(0)
		pool.Run(slots, func(slot int) {
			sl := &slotsState[slot]
			cr := t.res[slot]
			forEachClaimed(&cursor, cum, func(s, lo, hi int) {
				sh := ss.Shard(s)
				for _, li := range frontiers[s][lo:hi] {
					u := sh.Node(li)
					row := t.next.Row(u)
					sh.ApplyRowAffine(row, li, 1-p.Alpha, t.cur, p.Alpha, t.e0row(u))
					resid[u] = vecmath.ResidMax(cr, t.cur.Row(u), row)
					sl.updates++
				}
			})
		})

		// Commit phase: publish new values and push residual influence per
		// edge against the shard's thresholds. Local receivers join their
		// own shard's next frontier; remote receivers land in the sender's
		// cross-shard mailbox for the owner shard. The global queued marks
		// (CompareAndSwap) guarantee each node is enqueued exactly once no
		// matter which shard's send wins.
		cursor.Store(0)
		pool.Run(slots, func(slot int) {
			sl := &slotsState[slot]
			forEachClaimed(&cursor, cum, func(s, lo, hi int) {
				sh := ss.Shard(s)
				thr, stale := edgeThr[s], edgeStale[s]
				for _, li := range frontiers[s][lo:hi] {
					u := sh.Node(li)
					if !fullRound {
						copy(t.cur.Row(u), t.next.Row(u))
					}
					rs := resid[u]
					if rs == 0 {
						continue
					}
					// The push rule of ParallelColumns, edge for edge.
					base := sh.RowStart(li)
					for i, v := range sh.Neighbors(li) {
						es := stale[base+i] + rs
						if es <= thr[base+i] {
							stale[base+i] = es
							continue
						}
						stale[base+i] = 0
						sl.messages++
						dest := part.ShardOf(v)
						if dest != s {
							sl.cross++
						}
						if !queued[v].Load() && queued[v].CompareAndSwap(false, true) {
							sl.next[dest] = append(sl.next[dest], part.LocalOf(v))
						}
					}
				}
			})
		})
		if fullRound {
			t.cur, t.next = t.next, t.cur
		}
		// Mailbox flush: drain every worker's per-destination lists into the
		// owner shards' frontiers and clear the membership marks.
		queuedNext := 0
		for s := 0; s < k; s++ {
			sh := ss.Shard(s)
			frontiers[s] = frontiers[s][:0]
			for i := range slotsState {
				sl := &slotsState[i]
				for _, li := range sl.next[s] {
					queued[sh.Node(li)].Store(false)
					frontiers[s] = append(frontiers[s], li)
				}
				sl.next[s] = sl.next[s][:0]
			}
			queuedNext += len(frontiers[s])
		}
		for i := range slotsState {
			sl := &slotsState[i]
			r.st.Updates += sl.updates
			r.st.Messages += sl.messages
			r.st.CrossMessages += sl.cross
			sl.updates, sl.messages, sl.cross = 0, 0, 0
		}
		return visited, queuedNext == 0
	})
}

// ShardedSynchronousColumns diffuses a column block with the synchronous
// engine over a partitioned graph: each eq. 7 sweep updates every node, but
// the shards' rows are computed concurrently on the pool (block Jacobi is
// barrier-synchronous, so partitioning the sweep changes nothing about the
// values). Results are bit-for-bit identical to SynchronousColumns;
// CrossMessages counts the boundary share of each sweep's edge traffic.
func ShardedSynchronousColumns(ss *graph.ShardSet, sig *Signal, p Params, pool *Pool) (*Signal, Stats, error) {
	n, _, err := checkSignal(ss.Transition(), sig, p)
	if err != nil {
		return nil, Stats{}, err
	}
	tol, maxSweeps := p.syncControls()
	if pool == nil {
		pool = NewPool(p.Workers)
		defer pool.Close()
	}
	slots := clampWorkers(pool.Workers(), n)
	// One tile: the sharded orders parallelize over rows and ignore ColTile.
	r := newSweepRun(sig, []int{sig.Columns()}, slots, true)
	k := ss.NumShards()
	cum := make([]int, k+1)
	for s := 0; s < k; s++ {
		cum[s+1] = cum[s] + ss.Shard(s).Len()
	}
	var cursor atomic.Int64
	edgeMsgs := 2 * int64(ss.Transition().Graph().NumEdges())
	crossPerSweep := int64(ss.CrossEntries())
	return r.drive(p, tol, maxSweeps, func() (int, bool) {
		t := r.live[0]
		cursor.Store(0)
		pool.Run(slots, func(slot int) {
			cr := t.res[slot]
			forEachClaimed(&cursor, cum, func(s, lo, hi int) {
				sh := ss.Shard(s)
				for li := lo; li < hi; li++ {
					u := sh.Node(li)
					row := t.next.Row(u)
					vecmath.Zero(row)
					sh.ApplyRow(row, li, 1-p.Alpha, t.cur)
					vecmath.AXPY(row, p.Alpha, t.e0row(u))
					vecmath.ResidMax(cr, t.cur.Row(u), row)
				}
			})
		})
		t.cur, t.next = t.next, t.cur
		r.st.Updates += int64(n)
		r.st.Messages += edgeMsgs
		r.st.CrossMessages += crossPerSweep
		return n, false
	})
}
