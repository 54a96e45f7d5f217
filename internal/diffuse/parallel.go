package diffuse

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"diffusearch/internal/graph"
	"diffusearch/internal/vecmath"
)

// frontierChunk is the number of frontier nodes a worker claims per grab.
// Small enough to balance skewed degrees, large enough to amortize the
// atomic increment.
const frontierChunk = 128

// forEachClaimed drains [0, total) in chunks claimed through the shared
// atomic cursor and calls visit once per claimed [lo, hi) range. It is the
// single claim loop behind every phase of the parallel engines.
func forEachClaimed(cursor *atomic.Int64, total int, visit func(lo, hi int)) {
	for {
		hi := int(cursor.Add(frontierChunk))
		lo := hi - frontierChunk
		if lo >= total {
			return
		}
		visit(lo, min(hi, total))
	}
}

// Parallel runs the residual-driven frontier engine in matrix mode: the
// embedding-diffusion entry point behind Run(EngineParallel). It is
// ParallelColumns over the embedding dimensions — see there for the
// schedule; converged dimensions freeze individually, within tol of the
// joint fixed point like every column kernel.
//
// The returned matrix holds one diffused node embedding per row. The input
// e0 is not modified.
func Parallel(tr *graph.Transition, e0 *vecmath.Matrix, p Params) (*vecmath.Matrix, Stats, error) {
	return matrixOf(ParallelColumns(tr, NewSignal(e0), p))
}

// poolSize resolves the worker count of a per-run pool: p.Workers, or
// GOMAXPROCS when unset, capped at one worker per node.
func (p Params) poolSize(n int) int {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n && n > 0 {
		return n
	}
	return workers
}

// ParallelColumns diffuses a column block with the residual-driven frontier
// engine: instead of sweeping every node, it maintains an active frontier
// of nodes with significant unseen incoming change (the Gauss–Southwell
// selection rule, per the PowerWalk observation that converged regions of
// the graph need no further work). A node sends on an edge once the change
// accumulated since that edge's last send exceeds a receiver-aware
// threshold derived from tol/4 (see pushState), which bounds every
// receiver's pending incoming influence even at high-degree hubs. Each
// round recomputes the whole frontier from the previous round's values
// (block Jacobi on the active set), so the result is deterministic
// regardless of scheduling or worker count.
//
// The frontier is processed by a fixed pool of p.Workers goroutines
// (default GOMAXPROCS) that claim chunks through an atomic cursor and
// append to per-worker scratch frontiers — no per-node goroutines, no map
// mailboxes. Stats.Messages counts one transfer per edge send (plus the
// initial neighbourhood announcement), the same gossip accounting as a
// real deployment; targeted per-edge pushes make this strictly smaller
// than sweeping engines on converging runs.
//
// Scheduling is shared across the block: a frontier node's residual is its
// largest per-column change, and one per-edge staleness accumulator gates
// sends for the whole block (a send carries every active column, so firing
// an edge resets the staleness of all columns at once — each column's
// individual unseen influence per receiver therefore stays within the same
// tol/4 budget).
//
// Per-column early termination: a column whose largest change over the
// round's frontier falls to the push threshold pushTol = tol/4 is retired —
// below that granularity its remaining dynamics are inside the engine's
// own quiescence budget. Global quiescence (no node re-queued: every
// receiver's pending incoming influence is below tol/4 for every column)
// retires every remaining column. A plain max-norm-residual stop would be
// unsound here — (1−α)A is not a max-norm contraction for
// column-stochastic hubs, so a small per-round change can hide a large
// pending hub update.
func ParallelColumns(tr *graph.Transition, sig *Signal, p Params) (*Signal, Stats, error) {
	n, err := checkSignal(tr, sig, p)
	if err != nil {
		return nil, Stats{}, err
	}
	tol, maxRounds := p.controls()
	pushTol := tol / 4
	workers := p.poolSize(n)
	g := tr.Graph()
	resid := make([]float64, n)      // per-node change of the current round
	queued := make([]atomic.Bool, n) // membership marks for the next frontier
	frontier := make([]graph.NodeID, n)
	for u := range frontier {
		frontier[u] = u
	}
	edgeOff, edgeThr, edgeStale := pushState(tr, pushTol, p.Alpha)
	ws := make([]parWorker, workers)
	pool := newWorkerPool(workers)
	defer pool.close()
	var cursor atomic.Int64

	r := newSweepRun(sig, workers, true)
	// Bootstrap accounting: every node announces its signal to its
	// neighbourhood so the first round has inputs to read (Σ deg(u) = 2|E|
	// messages).
	r.st.Messages = 2 * int64(g.NumEdges())
	return r.drive(p, pushTol, maxRounds, func() (int, bool) {
		visited := len(frontier)
		fullRound := visited == n
		// Compute phase: per frontier node, one fused CSR pass advances
		// all active columns from the previous round's values.
		// Writes touch only next rows and resid slots of frontier nodes,
		// reads only cur — no write conflicts.
		cursor.Store(0)
		pool.run(func(id int) {
			w := &ws[id]
			forEachClaimed(&cursor, visited, func(lo, hi int) {
				for _, u := range frontier[lo:hi] {
					row := r.next.Row(u)
					tr.ApplyRowAffine(row, u, 1-p.Alpha, r.cur, p.Alpha, r.e0.Row(u))
					resid[u] = vecmath.ResidMax(r.res[id], r.cur.Row(u), row)
					w.updates++
				}
			})
		})
		// Commit phase: publish the new values and mark every neighbour of
		// a significantly changed node for the next round. Marking races
		// are resolved by CompareAndSwap so each node enters the frontier
		// once. When the frontier covers every node the row copies are
		// replaced by one buffer swap after the phase.
		cursor.Store(0)
		pool.run(func(id int) {
			w := &ws[id]
			forEachClaimed(&cursor, visited, func(lo, hi int) {
				for _, u := range frontier[lo:hi] {
					if !fullRound {
						copy(r.cur.Row(u), r.next.Row(u))
					}
					rs := resid[u]
					if rs == 0 {
						continue
					}
					// Push per edge on the change accumulated since that
					// edge's last send, against a receiver-aware threshold
					// — a flat per-sender cutoff would let many senders
					// each drift just under it and leave a shared hub
					// arbitrarily stale, while broadcasting every change
					// spams receivers that are insensitive to this sender.
					base := edgeOff[u]
					for i, v := range g.Neighbors(u) {
						es := edgeStale[base+i] + rs
						if es <= edgeThr[base+i] {
							edgeStale[base+i] = es
							continue
						}
						edgeStale[base+i] = 0
						w.messages++
						// Test-and-test-and-set: on dense frontiers most
						// neighbours are already queued, and the plain load
						// dodges the expensive CAS for them.
						if !queued[v].Load() && queued[v].CompareAndSwap(false, true) {
							w.next = append(w.next, v)
						}
					}
				}
			})
		})
		if fullRound {
			r.cur, r.next = r.next, r.cur
		}
		for id := range ws {
			w := &ws[id]
			r.st.Updates += w.updates
			r.st.Messages += w.messages
			w.updates, w.messages = 0, 0
		}
		frontier = rebuildFrontier(ws, queued, frontier)
		return visited, len(frontier) == 0
	})
}

// rebuildFrontier drains the per-worker next-frontier lists into frontier
// (reusing its backing array) and clears the membership marks.
func rebuildFrontier(ws []parWorker, queued []atomic.Bool, frontier []graph.NodeID) []graph.NodeID {
	frontier = frontier[:0]
	for i := range ws {
		w := &ws[i]
		for _, v := range w.next {
			queued[v].Store(false)
			frontier = append(frontier, v)
		}
		w.next = w.next[:0]
	}
	return frontier
}

// pushState precomputes the CSR-aligned per-edge push thresholds (plus the
// offsets indexing them and a zeroed staleness accumulator). Sender u's
// unseen change enters receiver v's update as (1−α)·A[v][u]·stale(u,v);
// granting each of v's deg(v) incoming edges an equal pushTol/deg(v) share
// of v's error budget gives the send rule
//
//	send on (u,v) once stale(u,v) > pushTol / ((1−α)·A[v][u]·deg(v))
//
// which caps every receiver's total pending incoming influence at pushTol
// no matter how many sub-threshold senders feed it (the high-degree-hub
// case a flat per-sender cutoff gets wrong), while suppressing sends to
// receivers that barely weight this sender (a hub need not spam its
// leaves).
func pushState(tr *graph.Transition, pushTol, alpha float64) (off []int, thr, stale []float64) {
	g := tr.Graph()
	n := g.NumNodes()
	off = make([]int, n+1)
	for u := 0; u < n; u++ {
		off[u+1] = off[u] + g.Degree(u)
	}
	thr = make([]float64, off[n])
	stale = make([]float64, off[n])
	for u := 0; u < n; u++ {
		base := off[u]
		for i, v := range g.Neighbors(u) {
			thr[base+i] = math.Inf(1) // alpha == 1: no diffusion, nothing to announce
			if d := (1 - alpha) * tr.Weight(v, u) * float64(g.Degree(v)); d > 0 {
				thr[base+i] = pushTol / d
			}
		}
	}
	return off, thr, stale
}

// parWorker is the per-worker scratch state: a private slice of next-round
// frontier members plus round counters, merged by the coordinator between
// rounds so workers never contend on shared accumulators.
type parWorker struct {
	next     []graph.NodeID
	updates  int64
	messages int64
	// Pad to 128 bytes (two cache lines) so adjacent workers in the slice
	// never share a line however the allocator aligns it.
	_ [128 - 40]byte
}

// workerPool is a fixed set of goroutines executing one function per phase.
// Phase completion is signalled through a pending-work counter: the last
// worker to finish posts to done, so the coordinator blocks on a channel
// receive instead of sleep-polling shared state.
type workerPool struct {
	tasks   []chan func(worker int)
	pending atomic.Int64
	done    chan struct{}
	quit    chan struct{}
	wg      sync.WaitGroup
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{
		tasks: make([]chan func(int), workers),
		done:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := range p.tasks {
		p.tasks[i] = make(chan func(int), 1)
		go func(id int) {
			defer p.wg.Done()
			for {
				select {
				case <-p.quit:
					return
				case fn := <-p.tasks[id]:
					fn(id)
					if p.pending.Add(-1) == 0 {
						p.done <- struct{}{}
					}
				}
			}
		}(i)
	}
	return p
}

// run executes fn on every worker and returns when all have finished. A
// one-worker pool runs fn inline: the coordinator is the worker, sparing the
// channel round trip per phase.
func (p *workerPool) run(fn func(worker int)) {
	if len(p.tasks) == 1 {
		fn(0)
		return
	}
	p.pending.Store(int64(len(p.tasks)))
	for i := range p.tasks {
		p.tasks[i] <- fn
	}
	<-p.done
}

// close stops the workers. The pool must be idle.
func (p *workerPool) close() {
	close(p.quit)
	p.wg.Wait()
}
