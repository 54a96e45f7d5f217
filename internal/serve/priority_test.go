package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
)

// submitOpts submits in a goroutine and reports the result on a channel.
func submitOpts(s *Scheduler, query []float64, opts SubmitOpts) chan error {
	errCh := make(chan error, 1)
	go func() {
		_, err := s.SubmitWith(context.Background(), query, opts)
		errCh <- err
	}()
	return errCh
}

func TestInteractiveJumpsQueuedBulk(t *testing.T) {
	// An overflowing coalesce window must dispatch Interactive ahead of
	// earlier-arrived Bulk: with MaxBatch 2 and [bulk, bulk, interactive]
	// queued behind a gated dispatch, the next batch is [interactive,
	// bulk], not the FIFO [bulk, bulk].
	b := &stubBackend{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	s := newTestScheduler(t, b, Config{MaxBatch: 2, Cache: 0})

	first := submitOpts(s, q(0), SubmitOpts{})
	<-b.entered // batch {0} gated inside the backend
	bulk1 := submitOpts(s, q(1), SubmitOpts{Class: Bulk})
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 2 })
	bulk2 := submitOpts(s, q(2), SubmitOpts{Class: Bulk})
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 3 })
	inter := submitOpts(s, q(3), SubmitOpts{Class: Interactive})
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 4 })

	for i := 0; i < 3; i++ {
		b.release()
	}
	for _, ch := range []chan error{first, bulk1, bulk2, inter} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if w := b.batchWidths(); len(w) != 3 || w[0] != 1 || w[1] != 2 || w[2] != 1 {
		t.Fatalf("widths %v, want [1 2 1]", w)
	}
	// Dispatch order: the interactive query rode the first follow-up batch.
	b.mu.Lock()
	seen := append([]string(nil), b.seen...)
	b.mu.Unlock()
	if seen[1] != Key(q(3)) {
		t.Fatalf("batch 2 led with %q, want the interactive query", seen[1])
	}
	if seen[3] != Key(q(2)) {
		t.Fatalf("batch 3 carried %q, want the passed-over bulk query", seen[3])
	}
	st := s.Stats()
	if st.ClassHist[Interactive][histBucket(1)] == 0 || st.ClassHist[Bulk][histBucket(1)] == 0 {
		t.Fatalf("per-class histograms unpopulated: %v", st.ClassHist)
	}
}

func TestEarliestDeadlineFirstWithinClass(t *testing.T) {
	// Two Interactive queries with deadlines overflow MaxBatch 1: the later
	// arrival with the earlier deadline dispatches first (EDF, not FIFO).
	b := &stubBackend{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	s := newTestScheduler(t, b, Config{MaxBatch: 1, Cache: 0})

	first := submitOpts(s, q(0), SubmitOpts{})
	<-b.entered
	far := time.Now().Add(time.Hour)
	near := time.Now().Add(30 * time.Minute)
	late := submitOpts(s, q(1), SubmitOpts{Deadline: far})
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 2 })
	urgent := submitOpts(s, q(2), SubmitOpts{Deadline: near})
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 3 })

	for i := 0; i < 3; i++ {
		b.release()
	}
	for _, ch := range []chan error{first, late, urgent} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	b.mu.Lock()
	seen := append([]string(nil), b.seen...)
	b.mu.Unlock()
	if seen[1] != Key(q(2)) || seen[2] != Key(q(1)) {
		t.Fatalf("dispatch order %v, want the earlier deadline first", seen)
	}
}

func TestDeadlineShedBeforeDispatch(t *testing.T) {
	// A query whose deadline expires while queued behind an in-flight
	// diffusion is shed: rejected with ErrDeadlineMissed, never scored,
	// counted in DeadlineMissed.
	b := &stubBackend{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	s := newTestScheduler(t, b, Config{Cache: 0})

	first := submitOpts(s, q(0), SubmitOpts{})
	<-b.entered // collector parked inside the gated backend
	deadline := time.Now().Add(20 * time.Millisecond)
	doomed := q(42)
	doomedCh := submitOpts(s, doomed, SubmitOpts{Deadline: deadline})
	survivor := submitOpts(s, q(2), SubmitOpts{})
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 3 })

	// Hold the diffusion until the deadline has certainly passed, then let
	// the collector dispatch the queued pair: the doomed query must be shed
	// at that dispatch, not scored late.
	for !time.Now().After(deadline) {
		time.Sleep(time.Millisecond)
	}
	b.release()
	b.release()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-doomedCh; !errors.Is(err, ErrDeadlineMissed) {
		t.Fatalf("expired query returned %v, want ErrDeadlineMissed", err)
	}
	if err := <-survivor; err != nil {
		t.Fatal(err)
	}
	if b.sawKey(Key(doomed)) {
		t.Fatal("expired query was scored")
	}
	st := s.Stats()
	if st.DeadlineMissed != 1 || st.QueriesScored != 2 {
		t.Fatalf("stats %v", st)
	}
}

func TestDeadOnArrivalRejectedWithoutAdmission(t *testing.T) {
	b := &stubBackend{}
	s := newTestScheduler(t, b, Config{Cache: 8})
	_, err := s.SubmitWith(context.Background(), q(1),
		SubmitOpts{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, ErrDeadlineMissed) {
		t.Fatalf("expired-at-submit returned %v", err)
	}
	st := s.Stats()
	if st.Submitted != 0 || st.DeadlineMissed != 1 {
		t.Fatalf("stats %v", st)
	}
	// A cache hit costs no diffusion, so it is served even past a deadline.
	if _, err := s.Submit(context.Background(), q(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitWith(context.Background(), q(1),
		SubmitOpts{Deadline: time.Now().Add(-time.Second)}); err != nil {
		t.Fatalf("expired cached query rejected: %v", err)
	}
}

func TestBulkHoldsToWidenThenDispatches(t *testing.T) {
	// Bulk queries on an idle scheduler hold the window open (waiting is
	// the point: width): four Bulk submissions within the BulkMaxWait
	// budget must coalesce into one batch instead of four width-1
	// dispatches.
	b := &stubBackend{}
	s := newTestScheduler(t, b, Config{
		MaxWait: time.Millisecond, BulkMaxWait: 30 * time.Second, MaxBatch: 4, Cache: 0,
	})
	var chans []chan error
	for i := 0; i < 4; i++ {
		chans = append(chans, submitOpts(s, q(float64(i)), SubmitOpts{Class: Bulk}))
		waitStats(t, s, func(st Stats) bool { return st.Submitted == uint64(i+1) })
	}
	// The window fills to MaxBatch, which closes it long before the
	// 30-second budget (a held window that ignored fullness would time the
	// test out).
	for _, ch := range chans {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if w := b.batchWidths(); len(w) != 1 || w[0] != 4 {
		t.Fatalf("widths %v, want one width-4 batch", w)
	}
	if st := s.Stats(); st.ClassHist[Bulk][histBucket(4)] != 1 {
		t.Fatalf("bulk histogram %v", st.ClassHist[Bulk])
	}
}

func TestInteractiveArrivalClosesBulkHold(t *testing.T) {
	// An all-Bulk hold (here with an hour of budget) must close as soon as
	// an Interactive query arrives and nobody else is en route — the
	// urgent query jumps in, the Bulk query rides along for width. A hold
	// that waited out BulkMaxWait would time the test out.
	b := &stubBackend{}
	s := newTestScheduler(t, b, Config{
		MaxWait: time.Millisecond, BulkMaxWait: time.Hour, MaxBatch: 8, Cache: 0,
	})
	bulkCh := submitOpts(s, q(1), SubmitOpts{Class: Bulk})
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 1 })
	if _, err := s.SubmitWith(context.Background(), q(2), SubmitOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := <-bulkCh; err != nil {
		t.Fatal(err)
	}
	if w := b.batchWidths(); len(w) != 1 || w[0] != 2 {
		t.Fatalf("widths %v, want one width-2 batch", w)
	}
}

func TestBulkNotStarvedUnderSustainedInteractiveLoad(t *testing.T) {
	// The starvation bound: with every batch full of Interactive queries,
	// a Bulk query is passed over at most BulkEvery times, then promoted
	// and dispatched — within BulkEvery+1 selections of entering the
	// window. Runs in CI's -race step (this package).
	const (
		maxBatch  = 2
		bulkEvery = 2
	)
	b := &stubBackend{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	s := newTestScheduler(t, b, Config{MaxBatch: maxBatch, BulkEvery: bulkEvery, Queue: 32, Cache: 0})

	var all []chan error
	next := 0
	interactive := func(n int) {
		for i := 0; i < n; i++ {
			next++
			all = append(all, submitOpts(s, q(float64(next)), SubmitOpts{}))
			waitStats(t, s, func(st Stats) bool { return st.Submitted == uint64(next) })
		}
	}

	interactive(1)
	<-b.entered // width-1 batch gated: everything below queues behind it
	bulk := q(-1)
	next++
	all = append(all, submitOpts(s, bulk, SubmitOpts{Class: Bulk}))
	waitStats(t, s, func(st Stats) bool { return st.Submitted == uint64(next) })

	// Keep every selection oversubscribed with Interactive queries: each
	// release lets one gated batch finish, and two fresh Interactive
	// queries queue before the next selection.
	dispatched := 0
	for i := 0; i < bulkEvery+1 && !b.sawKey(Key(bulk)); i++ {
		interactive(2)
		b.release()
		<-b.entered // the next selection's batch entered the backend
		dispatched++
	}
	if !b.sawKey(Key(bulk)) {
		b.release()
		<-b.entered
		dispatched++
	}
	if !b.sawKey(Key(bulk)) {
		t.Fatalf("bulk query still waiting after %d full-width Interactive selections (bound %d)",
			dispatched, bulkEvery+1)
	}
	// Drain: release every remaining gated batch so all submitters resolve.
	for {
		st := s.Stats()
		if st.Completed+st.Cancelled+st.Errors == uint64(next) {
			break
		}
		select {
		case b.gate <- struct{}{}:
		default:
		}
		time.Sleep(time.Millisecond)
	}
	for _, ch := range all {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.BulkPromoted == 0 {
		t.Fatalf("promotion never recorded: %v", st)
	}
}

// firstBatchBackend records the width of the first batch to enter the
// wrapped stub, before its gate: the queries the collector has in flight
// while that batch is parked.
type firstBatchBackend struct {
	*stubBackend
	width atomic.Int64
}

func (b *firstBatchBackend) ScoreBatch(qs [][]float64, req core.DiffusionRequest) ([][]float64, diffuse.Stats, error) {
	b.width.CompareAndSwap(0, int64(len(qs)))
	return b.stubBackend.ScoreBatch(qs, req)
}

func TestOverloadKeepsStandingWorkBounded(t *testing.T) {
	// The reorder window must not retire the Queue bound: under heavy
	// oversubmission the collector's carry plus the channel stays O(Queue)
	// and the excess callers block in Submit — admission control keeps
	// working exactly as the backpressure contract promises.
	const (
		queueBound = 4
		maxBatch   = 2
		submitters = 20
	)
	b := &firstBatchBackend{stubBackend: &stubBackend{gate: make(chan struct{}), entered: make(chan struct{}, 32)}}
	s := newTestScheduler(t, b, Config{MaxBatch: maxBatch, Queue: queueBound, Cache: 0})
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), q(float64(i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	<-b.entered // first dispatch gated; the queue fills behind it
	// Wait until admission has stopped: the channel is full and Submitted
	// counts every admitted query — the gated batch, the collector's
	// carry-over window and the channel. Submitted is bumped after the
	// channel send, so it may lag admission but never lead it; once it
	// catches up with the channel full and the collector parked, nobody
	// else can get in.
	inFlight := uint64(b.width.Load())
	waitStats(t, s, func(st Stats) bool {
		return len(s.submit) == queueBound && st.Submitted == inFlight+uint64(st.QueueDepth)
	})
	// How many submitters beat the collector's wake-up decides how much it
	// drained before dispatching, so admitted work lands anywhere in the
	// Config.Queue interval [1+Queue, max(Queue,MaxBatch)+Queue].
	lo, hi := uint64(1+queueBound), uint64(max(queueBound, maxBatch)+queueBound)
	if st := s.Stats(); st.Submitted < lo || st.Submitted > hi {
		t.Fatalf("admitted %d queries with a full queue and a busy collector, want [%d, %d]: %v", st.Submitted, lo, hi, st)
	}
	// Drain, asserting the standing-work bound at every step: the carry
	// window may hold at most max(Queue, MaxBatch) and the channel at most
	// Queue.
	bound := queueBound + queueBound // Queue (channel) + drain limit (carry)
	done := uint64(0)
	for done < submitters {
		if st := s.Stats(); st.QueueDepth > bound {
			t.Fatalf("standing work %d exceeds bound %d (queue bound dead)", st.QueueDepth, bound)
		}
		select {
		case b.gate <- struct{}{}:
		default:
			// Nobody is parked at the gate yet: hand the processor to the
			// collector and submitters instead of spinning out the
			// scheduler's time slice (which, at GOMAXPROCS=1, is most of
			// the test's runtime).
			runtime.Gosched()
		}
		done = s.Stats().Completed
	}
	wg.Wait()
}

func TestLateCacheHitServedPastDeadline(t *testing.T) {
	// A query whose scores land in the cache while it waits (a Warm or a
	// duplicate in an earlier batch) is served even after its deadline
	// expires: the cached answer costs no diffusion, and shedding protects
	// only the scoring path — same contract as the admission fast path.
	b := &stubBackend{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	s := newTestScheduler(t, b, Config{Cache: 8})

	first := submitOpts(s, q(0), SubmitOpts{})
	<-b.entered // collector parked inside the gated backend
	deadline := time.Now().Add(15 * time.Millisecond)
	doomed := q(42)
	doomedCh := make(chan error, 1)
	var doomedScores []float64
	go func() {
		scores, err := s.SubmitWith(context.Background(), doomed, SubmitOpts{Deadline: deadline})
		doomedScores = scores
		doomedCh <- err
	}()
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 2 })
	// The scores arrive by another route while the query waits.
	s.cache.putAt(s.cache.generation(), Key(doomed), []float64{7})
	for !time.Now().After(deadline) {
		time.Sleep(time.Millisecond)
	}
	b.release()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-doomedCh; err != nil {
		t.Fatalf("cached query shed at deadline: %v", err)
	}
	if doomedScores[0] != 7 {
		t.Fatalf("scores %v, want the cached column", doomedScores)
	}
	if st := s.Stats(); st.DeadlineMissed != 0 || st.CacheHits != 1 {
		t.Fatalf("stats %v", st)
	}
}

func TestWindowClosesBeforeBindingDeadline(t *testing.T) {
	// The deadline-jump must leave the dispatch a head start: a deadline
	// tighter than the wait budget closes the window deadlineSlack early,
	// otherwise the timer would fire exactly at the deadline and the shed
	// check would reject the very query the window was tightened for.
	cfg := Config{MaxWait: 50 * time.Millisecond}.withDefaults()
	enq := time.Now()
	deadline := enq.Add(10 * time.Millisecond)
	closeAt, idle := window([]*pending{{enq: enq, deadline: deadline}}, cfg)
	if !idle {
		t.Fatal("interactive window must be idle-closable")
	}
	if want := deadline.Add(-deadlineSlack); !closeAt.Equal(want) {
		t.Fatalf("window closes at %v, want deadline-slack %v", closeAt, want)
	}
	// Without a deadline the budget is plain MaxWait.
	closeAt, _ = window([]*pending{{enq: enq}}, cfg)
	if want := enq.Add(cfg.MaxWait); !closeAt.Equal(want) {
		t.Fatalf("window closes at %v, want enq+MaxWait %v", closeAt, want)
	}
}

func TestValveElevatesLongestWaitingBulk(t *testing.T) {
	// The starvation valve picks the Bulk query with the most passes, not
	// the first in buffer order: the carry is EDF-sorted, so a deadlined
	// Bulk query can sit ahead of an older deadline-less one and must not
	// hog the valve.
	cfg := Config{MaxBatch: 1, BulkEvery: 2}.withDefaults()
	younger := &pending{class: Bulk, deadline: time.Now().Add(time.Hour), passes: 2}
	older := &pending{class: Bulk, passes: 5}
	filler := &pending{class: Bulk}
	batch, rest, promoted := selectBatch([]*pending{younger, older, filler}, cfg)
	if promoted != 1 {
		t.Fatalf("promoted %d, want 1", promoted)
	}
	if len(batch) != 1 || batch[0] != older {
		t.Fatalf("valve elevated the wrong query (batch %v)", batch)
	}
	if len(rest) != 2 {
		t.Fatalf("rest %d, want 2", len(rest))
	}
}

func TestCloseCutsBulkHoldShort(t *testing.T) {
	// Close must not sit out an idle all-Bulk window's budget: the held
	// query dispatches immediately (still scored), and Close returns in
	// well under BulkMaxWait.
	b := &stubBackend{}
	s, err := New(b, Config{MaxWait: time.Second, BulkMaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	bulkCh := submitOpts(s, q(1), SubmitOpts{Class: Bulk})
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 1 })
	start := time.Now()
	s.Close()
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("Close took %v against an hour-long bulk hold", elapsed)
	}
	if err := <-bulkCh; err != nil {
		t.Fatalf("held bulk query not scored through Close: %v", err)
	}
	if st := s.Stats(); st.QueriesScored != 1 {
		t.Fatalf("stats %v", st)
	}
}

func TestZeroOptsProfileMatchesFIFO(t *testing.T) {
	// The compatibility bar: with SubmitOpts left zero-valued the dispatch
	// profile is the pre-priority one — FIFO spill at MaxBatch, identical
	// widths, no new-field activity.
	b := &stubBackend{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	s := newTestScheduler(t, b, Config{MaxBatch: 4, Queue: 16, Cache: 0})
	var wg sync.WaitGroup
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.SubmitWith(context.Background(), q(float64(i)), SubmitOpts{}); err != nil {
				t.Error(err)
			}
		}()
	}
	submit(0)
	<-b.entered
	for i := 1; i < 10; i++ {
		submit(i)
	}
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 10 })
	for i := 0; i < 4; i++ {
		b.release()
	}
	wg.Wait()
	if w := b.batchWidths(); len(w) != 4 || w[0] != 1 || w[1] != 4 || w[2] != 4 || w[3] != 1 {
		t.Fatalf("widths %v, want the FIFO spill [1 4 4 1]", w)
	}
	st := s.Stats()
	if st.DeadlineMissed != 0 || st.BulkPromoted != 0 {
		t.Fatalf("zero-valued opts touched priority counters: %v", st)
	}
	var bulkActivity uint64
	for _, c := range st.ClassHist[Bulk] {
		bulkActivity += c
	}
	if bulkActivity != 0 {
		t.Fatalf("zero-valued opts produced bulk columns: %v", st.ClassHist[Bulk])
	}
}
