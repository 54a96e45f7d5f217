// Package serve turns the batch scoring engine into a serving system: an
// admission-controlled scheduler that coalesces concurrently arriving
// queries into multi-column ScoreBatch diffusions under a latency budget.
//
// PR 2 showed that scoring B=64 queries in one diffusion costs ~0.23× the
// ns/query of sequential calls — but that amortization only exists if
// something assembles batches from live traffic. The Scheduler is that
// something: callers Submit one query each and block on a per-caller
// future; a collector goroutine packs waiting queries into one n×B signal
// diffusion and fans the per-column scores back.
//
// Batch sizing is adaptive. A query that arrives while the system is idle
// dispatches immediately (no co-riders means waiting buys nothing, so the
// idle-path latency equals the direct ScoreBatch latency). When queries
// are already waiting — because the arrival rate is high or a diffusion is
// in flight — the collector drains everything queued, optionally holds the
// batch open up to MaxWait from the oldest member's arrival, and dispatches
// at MaxBatch width. "Idle" means no other caller is mid-Submit (a live
// admission count, plus one scheduling yield so a burst's co-submitters
// reach the queue on a saturated box), not merely an empty queue — see
// collect. Under closed-loop load the realized width therefore grows with
// the number of concurrent callers, which is exactly when the amortization
// pays.
//
// Backpressure is a bounded submission queue: when it is full, Submit
// blocks until space frees or the caller's context cancels. A caller that
// gives up mid-coalesce is dropped from the batch before dispatch — its
// column is never scored. Identical queries coalesce into one column
// (exact-key dedup), and a bounded LRU cache keyed by the query's exact
// bit pattern lets repeated queries skip diffusion entirely; invalidate it
// when the underlying topology changes (InvalidateCache).
//
// Admission is priority-aware. SubmitWith tags a query with a scheduling
// class and an optional deadline: Interactive (the zero value — exactly
// the behaviour described above, bit-for-bit) wants low tail latency,
// while Bulk (prewarms, re-embedding sweeps, analytics) volunteers to wait
// up to BulkMaxWait so batches widen. Within the coalesce window queries
// are ordered earliest-deadline-first, so an urgent query jumps into the
// next dispatching batch while Bulk queries fill whatever width remains; a
// query whose deadline expires before dispatch is shed — rejected with
// ErrDeadlineMissed, never scored, counted in Stats.DeadlineMissed. A Bulk
// query passed over BulkEvery times is promoted to Interactive rank, which
// bounds starvation under sustained Interactive load.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: scheduler closed")

// ErrDeadlineMissed is returned by SubmitWith when the query's deadline
// expired before its batch dispatched: the query was shed, never scored,
// and counted in Stats.DeadlineMissed.
var ErrDeadlineMissed = errors.New("serve: deadline missed before dispatch")

// Class is the scheduling class of a submitted query (an alias of
// core.ServeClass, so dispatched DiffusionRequests carry it natively).
type Class = core.ServeClass

// The scheduling classes: Interactive is the zero value and preserves the
// FIFO coalescing behaviour exactly; Bulk trades latency for batch width.
const (
	Interactive = core.ClassInteractive
	Bulk        = core.ClassBulk
	// NumClasses bounds the per-class stats arrays.
	NumClasses = core.NumServeClasses
)

// ParseClass maps a command-line name to a scheduling class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "interactive":
		return Interactive, nil
	case "bulk":
		return Bulk, nil
	}
	return Interactive, fmt.Errorf("serve: unknown class %q (want interactive|bulk)", s)
}

// SubmitOpts tags one submission for the priority-aware admission path.
// The zero value (Interactive class, no deadline) reproduces the plain
// Submit behaviour bit-for-bit: same batch compositions, same cache keys,
// same stats except the new per-class fields.
type SubmitOpts struct {
	// Class selects the scheduling class; the zero value is Interactive.
	Class Class
	// Deadline, when non-zero, bounds how long the query may wait for
	// dispatch: it tightens the coalesce window (the batch closes early so
	// the query dispatches in time — the deadline-jump) and orders the
	// window earliest-deadline-first; a query still undispatched at its
	// deadline is shed with ErrDeadlineMissed, never scored. The deadline
	// covers waiting only — a query that makes it into a dispatching batch
	// is scored even if the diffusion finishes past the deadline.
	Deadline time.Time
}

// Backend scores query batches. *core.Network satisfies it; cmd/peerd wraps
// it with a swappable topology mirror.
type Backend interface {
	ScoreBatch(queries [][]float64, req core.DiffusionRequest) ([][]float64, diffuse.Stats, error)
}

// Config parameterizes a Scheduler.
type Config struct {
	// Request is the DiffusionRequest dispatched for every coalesced batch
	// (engine, alpha, tolerance, workers, seed).
	Request core.DiffusionRequest
	// MaxBatch caps the coalesced batch width; 0 means 64 (the width at
	// which ScoreBatch amortization has flattened on the paper graph).
	MaxBatch int
	// MaxWait is the latency budget a queued query may spend waiting for
	// co-riders, measured from its arrival. 0 means zero-wait: the
	// collector never holds a batch open (it still coalesces whatever is
	// already queued, so width grows under load even at zero wait).
	MaxWait time.Duration
	// Queue bounds the submission queue (backpressure): when it is full,
	// Submit blocks until space frees or the caller cancels. 0 means
	// 4×MaxBatch. While a dispatched batch is still scoring, admitted work
	// (that batch, the collector's carry-over window and the channel) lies
	// in [1+Queue, max(Queue,MaxBatch)+Queue]: before dispatching MaxBatch
	// the collector drains up to max(Queue,MaxBatch) and carries the rest,
	// then the channel refills to Queue behind it. Where in the interval a
	// run lands depends on how many submitters beat the collector's wake-up.
	Queue int
	// Cache sizes the LRU score cache (entries); 0 disables caching.
	Cache int
	// BulkMaxWait is the latency budget a Bulk-class query may spend
	// waiting to widen batches — the width-filling counterpart of MaxWait.
	// 0 means 4×MaxWait (so a zero-wait scheduler holds Bulk queries no
	// longer than Interactive ones unless told to).
	BulkMaxWait time.Duration
	// BulkEvery bounds Bulk starvation: a Bulk query passed over this many
	// selections becomes eligible for the starvation valve — each selection
	// elevates the longest-waiting over-budget Bulk query to Interactive
	// rank (one per selection; see selectBatch) — so sustained Interactive
	// load cannot park Bulk work forever. 0 means 4.
	BulkEvery int
	// OnTrace, when non-nil, receives one Trace per resolved submission:
	// cache hits, deduped co-riders, scored columns, shed, rejected and
	// cancelled queries, backend errors. It is called on whichever
	// goroutine resolves the query — the collector for dispatched paths,
	// the submitter for admission fast paths — so implementations must be
	// fast and must never block (a slow sink stalls the batch pipeline).
	// Nil costs one nil check per resolution.
	OnTrace func(Trace)
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.MaxBatch
	}
	if c.BulkMaxWait <= 0 {
		c.BulkMaxWait = 4 * c.MaxWait
	}
	if c.BulkEvery <= 0 {
		c.BulkEvery = 4
	}
	return c
}

// result is the value a pending future resolves to. cached marks a late
// cache hit resolved at dispatch time, so Submit counts the query as a
// cache hit rather than a completion (each query increments exactly one
// counter).
type result struct {
	scores []float64
	err    error
	cached bool
}

// pending is one submitted query waiting to be coalesced.
type pending struct {
	query    []float64
	key      string
	ctx      context.Context
	enq      time.Time
	class    Class
	deadline time.Time   // zero: none
	passes   int         // selections this query was passed over (collector-owned)
	done     chan result // buffered 1: dispatch never blocks on a waiter
}

// Scheduler coalesces concurrent Submit calls into batched diffusions.
// Construct with New; all methods are safe for concurrent use.
type Scheduler struct {
	backend Backend
	cfg     Config
	cache   *lru

	submit   chan *pending
	mu       sync.Mutex // guards closed and admits wg.Add
	closed   bool
	inflight sync.WaitGroup
	live     atomic.Int64  // callers between admission and enqueue
	carried  atomic.Int64  // queries in the collector's carry-over window
	stop     chan struct{} // closed at Close entry: cuts any open hold short
	loopDone chan struct{}

	m metrics
}

// New starts a scheduler over backend. Close releases its collector
// goroutine.
func New(backend Backend, cfg Config) (*Scheduler, error) {
	if backend == nil {
		return nil, fmt.Errorf("serve: nil backend")
	}
	cfg = cfg.withDefaults()
	s := &Scheduler{
		backend:  backend,
		cfg:      cfg,
		cache:    newLRU(cfg.Cache),
		submit:   make(chan *pending, cfg.Queue),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	go s.loop()
	return s, nil
}

// Submit scores one query through the coalescing pipeline and blocks until
// the scores arrive, the context cancels, or the scheduler closes. The
// returned slice holds one relevance score per node and is shared with the
// cache and any co-submitted duplicates — callers must not mutate it.
// Submit is SubmitWith at the zero SubmitOpts: Interactive class, no
// deadline, the exact pre-priority behaviour.
func (s *Scheduler) Submit(ctx context.Context, query []float64) ([]float64, error) {
	return s.SubmitWith(ctx, query, SubmitOpts{})
}

// SubmitWith is Submit with a scheduling class and an optional deadline
// (see SubmitOpts). Interactive queries jump the coalesce window
// earliest-deadline-first; Bulk queries wait up to BulkMaxWait to widen
// batches; a query whose deadline passes before dispatch is shed with
// ErrDeadlineMissed, never scored.
func (s *Scheduler) SubmitWith(ctx context.Context, query []float64, opts SubmitOpts) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		// Checked before the cache so a closed scheduler honours its
		// contract even for queries it could answer from cache.
		return nil, ErrClosed
	}
	key := Key(query)
	if scores, ok := s.cache.get(key); ok {
		// A cache hit costs no diffusion, so it is served even right at the
		// deadline — shedding only protects the scoring path.
		s.m.cacheHit()
		s.trace(Trace{Path: PathCacheHit, Class: opts.Class})
		return scores, nil
	}
	if !opts.Deadline.IsZero() && !time.Now().Before(opts.Deadline) {
		// Dead on arrival: never admitted, never scored.
		s.m.deadlineMissed()
		s.trace(Trace{Path: PathShed, Class: opts.Class, Err: ErrDeadlineMissed})
		return nil, ErrDeadlineMissed
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()
	// The live count is the collector's load signal: it counts callers
	// between admission and enqueue — co-riders on their way to the queue
	// that a queue-emptiness test alone cannot see (which can lock a
	// loaded scheduler into width-1 dispatches when submitters and the
	// collector interleave on a contended CPU). Once the pending is in the
	// queue the collector sees it directly, so the decrement happens at
	// enqueue, not at return — a resolved waiter must not read as load.
	s.live.Add(1)

	p := &pending{
		query: query, key: key, ctx: ctx, enq: time.Now(),
		class: opts.Class, deadline: opts.Deadline,
		done: make(chan result, 1),
	}
	select {
	case s.submit <- p:
		// Fast path: queue not full, no deadline timer ever allocated.
		s.live.Add(-1)
	default:
		var expiry <-chan time.Time
		if !p.deadline.IsZero() {
			t := time.NewTimer(time.Until(p.deadline))
			defer t.Stop()
			expiry = t.C
		}
		select {
		case s.submit <- p:
			s.live.Add(-1)
		case <-ctx.Done():
			// Bounded-queue backpressure: the queue stayed full for the
			// caller's whole patience.
			s.live.Add(-1)
			s.m.rejected()
			s.trace(Trace{Path: PathRejected, Class: p.class, Wait: time.Since(p.enq), Err: ctx.Err()})
			return nil, ctx.Err()
		case <-expiry:
			// The queue stayed full past the deadline: shed at admission
			// (the collector never saw this query, so it counts the miss
			// here).
			s.live.Add(-1)
			s.m.deadlineMissed()
			s.trace(Trace{Path: PathShed, Class: p.class, Wait: time.Since(p.enq), Err: ErrDeadlineMissed})
			return nil, ErrDeadlineMissed
		}
	}
	s.m.submitted()
	select {
	case r := <-p.done:
		if r.err != nil {
			return nil, r.err
		}
		if r.cached {
			s.m.cacheHit()
		} else {
			s.m.completed()
		}
		return r.scores, nil
	case <-ctx.Done():
		// The collector drops p before dispatch (see dispatch); the
		// buffered done channel absorbs a result that raced the cancel.
		return nil, ctx.Err()
	}
}

// Warm scores a whole query batch in one diffusion through the scheduler's
// request and fills the cache, so subsequent Submits for these queries are
// cache hits. It bypasses coalescing (ScoreBatch is safe to run alongside
// the collector) but is counted in the scheduler's dispatch statistics.
func (s *Scheduler) Warm(queries [][]float64) (diffuse.Stats, error) {
	gen := s.cache.generation()
	// A Warm is bulk analytics by definition (a prewarm sweep), so the
	// dispatched request and the per-class width histogram say so.
	req := s.cfg.Request
	req.Class = Bulk
	scores, st, err := s.backend.ScoreBatch(queries, req)
	if err != nil {
		return st, err
	}
	for j, q := range queries {
		s.cache.putAt(gen, Key(q), scores[j])
	}
	s.m.dispatched(len(queries), 0, len(queries), st)
	return st, nil
}

// InvalidateCache drops every cached score column. Call it whenever the
// backend's answers may have changed — e.g. after a topology patch or a
// document placement change.
func (s *Scheduler) InvalidateCache() { s.cache.clear() }

// invalidateEps is the score mass below which a cached column is treated
// as untouched by a node: diffusion placed no more relevance there than
// the scoring tolerance itself resolves, so a local topology patch at that
// node cannot move the column's top scores. Aligned with
// core.DefaultScoreTol (the per-column convergence tolerance).
const invalidateEps = 1e-8

// InvalidateNodes drops only the cached score columns whose diffusion
// placed non-negligible mass on any of the given nodes, and returns how
// many were dropped. It is the targeted counterpart of InvalidateCache for
// small topology patches: columns that never reached the patched region
// keep serving from cache.
//
// Callers must pass the patch's closed neighbourhood — the changed nodes
// plus their neighbours in both the old and new topology — because a
// column's mass at a node's neighbours is what a re-wiring redistributes;
// cmd/peerd's SIGHUP path computes exactly that set. Scores decay
// geometrically away from their query's relevance region, so this keeps a
// stale column's error at the same sub-tolerance scale the cache already
// accepts, while a whole-cache drop would re-diffuse every column for a
// one-node patch.
//
// The test is only sound for pure topology rewires: it inspects where the
// cached column's mass already is, so it cannot see mass a patch newly
// CREATES. A patch that changes relevance sources — documents placed or
// removed, a joining peer arriving with content — can raise scores in a
// region where every cached column is ~0, and no inspection of the old
// columns detects that. For such patches call InvalidateCache instead
// (cmd/peerd does).
func (s *Scheduler) InvalidateNodes(ids []int) int {
	if len(ids) == 0 {
		return 0
	}
	return s.cache.dropIf(func(scores []float64) bool {
		for _, id := range ids {
			if id < 0 {
				continue
			}
			if id >= len(scores) {
				// The patch references a node the cached column never saw
				// (a join grew the graph): the column cannot rank it.
				return true
			}
			// ≥, not >: a column with mass exactly at the threshold is at
			// the edge of what the tolerance resolves, and the contract is
			// "below eps is negligible", so the boundary itself must drop
			// (pinned by TestInvalidateNodesBoundary).
			if scores[id] >= invalidateEps || scores[id] <= -invalidateEps {
				return true
			}
		}
		return false
	})
}

// Stats returns a snapshot of the scheduler's counters. QueueDepth is the
// live submission-queue occupancy at the moment of the call, including
// queries the collector drained into its carry-over window but has not yet
// dispatched (before the priority refactor those sat in the channel, so
// the two-term sum keeps the reading comparable).
func (s *Scheduler) Stats() Stats {
	st := s.m.snapshot()
	st.QueueDepth = len(s.submit) + int(s.carried.Load())
	st.CacheBytes = s.cache.sizeBytes()
	return st
}

// Close stops admission, waits for every in-flight Submit to resolve
// (queued queries are still scored), and releases the collector.
// Subsequent Submits return ErrClosed. Close is idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.loopDone
		return
	}
	s.closed = true
	s.mu.Unlock()
	// Cut any open coalesce hold short before waiting on submitters: an
	// idle all-Bulk window may otherwise sit on its BulkMaxWait timer, and
	// its submitter is part of the inflight count Close waits for. Queued
	// and held queries still dispatch and score.
	close(s.stop)
	s.inflight.Wait()
	close(s.submit)
	<-s.loopDone
}

// loop is the collector: it gathers one coalesce window, dispatches the
// selected batch, and carries the rest over — scoring runs on this
// goroutine, so arrivals during a diffusion pile up in the queue and widen
// the next batch (the load-adaptive behaviour). After Close the channel
// drains and every carried query still dispatches before the loop exits.
func (s *Scheduler) loop() {
	defer close(s.loopDone)
	var carry []*pending
	for {
		batch, ok := s.gather(&carry)
		if len(batch) > 0 {
			s.dispatch(batch)
		}
		if !ok && len(carry) == 0 {
			return
		}
	}
}

// gather assembles the next coalesce window: block for work (unless the
// previous selection carried queries over), drain everything queued,
// optionally hold the window open (see hold), then split it into the
// dispatching batch and the carry-over (see selectBatch). ok is false once
// the submit channel has closed.
func (s *Scheduler) gather(carry *[]*pending) (batch []*pending, ok bool) {
	buf := *carry
	*carry = nil
	open := true
	if len(buf) == 0 {
		p, recvOK := <-s.submit
		if !recvOK {
			return nil, false
		}
		// The occupancy at wake-up (the taken element plus what piled up
		// behind it) is the backpressure signal QueueMax tracks.
		s.m.queueDepth(len(s.submit) + 1)
		buf = append(buf, p)
		buf, open = s.drainAll(buf)
	} else {
		// Carried queries wake the collector without a channel receive;
		// they are the occupancy signal here (they sat in the channel at
		// this point before the priority refactor).
		buf, open = s.drainAll(buf)
		s.m.queueDepth(len(buf))
	}
	if open && len(buf) < s.cfg.MaxBatch {
		buf, open = s.hold(buf)
	}
	batch, rest, promoted := selectBatch(buf, s.cfg)
	*carry = rest
	s.carried.Store(int64(len(rest)))
	if promoted > 0 {
		s.m.promoted(promoted)
	}
	return batch, open
}

// hold keeps the coalesce window open for co-riders until it closes (see
// window): Interactive members bound the hold by MaxWait from their
// arrival, Bulk members by BulkMaxWait, deadlines pull it shut early. A
// window with Interactive members also closes as soon as nobody is en
// route any more — with no co-riders coming, waiting buys no amortization
// — while an all-Bulk window holds through idleness by design. The
// en-route signal is the live admission-to-enqueue count, not queue
// occupancy, because on a contended CPU admitted co-riders may not have
// reached the queue yet when the collector wakes.
func (s *Scheduler) hold(buf []*pending) ([]*pending, bool) {
	closeAt, idleClose := window(buf, s.cfg)
	if !closeAt.After(time.Now()) {
		return buf, true
	}
	if idleClose && s.live.Load() == 0 {
		// Nobody is en route to the queue — but on a saturated box the
		// burst's other submitters may simply not have been scheduled yet
		// (the channel send gives this collector wake-up priority over
		// them). Yield once so runnable submitters reach the queue, then
		// re-drain; a truly idle scheduler pays one Gosched and still
		// dispatches a lone query immediately.
		runtime.Gosched()
		var open bool
		buf, open = s.drainAll(buf)
		if !open {
			return buf, false
		}
		if s.live.Load() == 0 {
			return buf, true
		}
		closeAt, idleClose = window(buf, s.cfg)
	}
	timer := time.NewTimer(time.Until(closeAt))
	defer timer.Stop()
	for len(buf) < s.cfg.MaxBatch {
		select {
		case p, ok := <-s.submit:
			if !ok {
				return buf, false
			}
			buf = append(buf, p)
			// The newcomer can only tighten the window (an urgent deadline,
			// an Interactive joining an all-Bulk hold) — recompute it.
			newClose, newIdle := window(buf, s.cfg)
			idleClose = newIdle
			if newClose.Before(closeAt) {
				closeAt = newClose
				timer.Reset(time.Until(closeAt))
			}
			if idleClose && s.live.Load() == 0 {
				return buf, true
			}
			if !closeAt.After(time.Now()) {
				return buf, true
			}
		case <-timer.C:
			return buf, true
		case <-s.stop:
			// Close is waiting on this window's submitters: dispatch what
			// is held instead of sitting out the (Bulk) budget.
			return buf, true
		}
	}
	return buf, true
}

// drainAll appends everything already queued to buf, non-blocking, up to
// the window bound. It drains past MaxBatch on purpose — selection needs
// a whole window to order by class and deadline (the overflow carries to
// the next batch) — but not past max(Queue, MaxBatch): an unbounded
// window would let the collector keep absorbing the channel under
// overload, silently retiring the Queue bound (standing work would grow
// without limit and the full-queue backpressure path — Submit blocking,
// then Rejected — would stop firing). With the cap, carry + channel stays
// O(Queue) and admission control keeps its teeth.
func (s *Scheduler) drainAll(buf []*pending) ([]*pending, bool) {
	limit := s.cfg.Queue
	if limit < s.cfg.MaxBatch {
		limit = s.cfg.MaxBatch
	}
	for len(buf) < limit {
		select {
		case p, ok := <-s.submit:
			if !ok {
				return buf, false
			}
			buf = append(buf, p)
		default:
			return buf, true
		}
	}
	return buf, true
}

// dispatch prunes cancelled callers, sheds queries whose deadline expired
// while queued, serves late cache hits, dedups exact duplicates into one
// column, scores the remaining unique queries in one ScoreBatch, and
// resolves every waiter's future.
func (s *Scheduler) dispatch(batch []*pending) {
	start := time.Now()
	groups := make(map[string][]*pending, len(batch))
	uniq := make([]*pending, 0, len(batch)) // arrival-ordered representatives
	for _, p := range batch {
		if p.ctx.Err() != nil {
			// The caller gave up mid-coalesce: drop it before dispatch so
			// its column is never scored.
			s.m.cancelled()
			s.trace(Trace{Path: PathCancelled, Class: p.class, Wait: start.Sub(p.enq), Err: p.ctx.Err()})
			continue
		}
		if scores, ok := s.cache.get(p.key); ok {
			// Scored while queued (a Warm or an earlier batch landed it);
			// the waiter's Submit counts the cache hit when it resolves.
			// Checked before the deadline, like the admission fast path: a
			// cache hit costs no diffusion, so it is served even at or past
			// the deadline — shedding protects only the scoring path.
			s.m.waited(start.Sub(p.enq), p.class)
			s.trace(Trace{Path: PathCacheHit, Class: p.class, Wait: start.Sub(p.enq)})
			p.done <- result{scores: scores, cached: true}
			continue
		}
		if expired(p, start) {
			// Deadline-miss shedding: the window could not dispatch this
			// query in time, so it is rejected rather than scored late.
			s.m.deadlineMissed()
			s.trace(Trace{Path: PathShed, Class: p.class, Wait: start.Sub(p.enq), Err: ErrDeadlineMissed})
			p.done <- result{err: ErrDeadlineMissed}
			continue
		}
		s.m.waited(start.Sub(p.enq), p.class)
		if g, ok := groups[p.key]; ok {
			groups[p.key] = append(g, p)
			continue
		}
		groups[p.key] = []*pending{p}
		uniq = append(uniq, p)
	}
	if len(uniq) == 0 {
		return
	}

	queries := make([][]float64, len(uniq))
	nInteractive, nBulk := s.classVote(uniq, groups, queries)
	req := s.cfg.Request
	req.Class = Interactive
	if nInteractive == 0 {
		req.Class = Bulk
	}
	// Capture the cache generation before scoring: an invalidation that
	// lands while the backend diffuses (e.g. a topology patch swapping the
	// backend's mirror) makes these columns stale, and putAt then drops
	// them instead of re-caching pre-patch answers (waiters still get the
	// scores — their query raced the patch, either ordering is valid).
	gen := s.cache.generation()
	scoreStart := time.Now()
	scores, st, err := s.backend.ScoreBatch(queries, req)
	scoreDur := time.Since(scoreStart)
	if err != nil {
		s.m.failed(len(uniq))
		for _, p := range uniq {
			for _, w := range groups[p.key] {
				s.trace(Trace{Path: PathError, Class: w.class, Wait: start.Sub(w.enq), Score: scoreDur, Batch: len(uniq), Err: err})
				w.done <- result{err: err}
			}
		}
		return
	}
	s.m.dispatched(len(uniq), nInteractive, nBulk, st)
	for i, p := range uniq {
		s.cache.putAt(gen, p.key, scores[i])
		for _, w := range groups[p.key] {
			path := PathDedup
			if w == p {
				path = PathScored
			}
			s.trace(Trace{Path: path, Class: w.class, Wait: start.Sub(w.enq), Score: scoreDur, Batch: len(uniq), Sweeps: st.Sweeps})
			w.done <- result{scores: scores[i]}
		}
	}
}

// classVote fills queries from each column's pending and tallies column
// classes: a column's class is its most urgent waiter's (a duplicate
// submitted both ways is Interactive), and a batch is tagged Bulk only
// when every column is.
func (s *Scheduler) classVote(cols []*pending, groups map[string][]*pending, queries [][]float64) (nInteractive, nBulk int) {
	for i, p := range cols {
		queries[i] = p.query
		class := Bulk
		for _, w := range groups[p.key] {
			if w.class == Interactive {
				class = Interactive
				break
			}
		}
		if class == Interactive {
			nInteractive++
		} else {
			nBulk++
		}
	}
	return nInteractive, nBulk
}
