package serve

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
)

// stubBackend is a controllable Backend: when gated, every ScoreBatch call
// first consumes one token, so tests decide exactly when batches complete
// and therefore what the collector sees queued. Scores are a deterministic
// function of the query (its component sum), so fan-out is verifiable.
//
// openGate lifts the gate for good. newTestScheduler registers it as a
// cleanup that runs before the scheduler's Close, so a t.Fatalf in a gated
// test fails with its message instead of parking Close behind a backend
// nobody will release until the package timeout.
type stubBackend struct {
	gate    chan struct{}
	entered chan struct{} // signalled (buffered) on every ScoreBatch entry

	openOnce sync.Once
	open     chan struct{} // closed by openGate; see opened

	mu     sync.Mutex
	widths []int    // realized width of every dispatched batch
	seen   []string // keys of every scored column, in dispatch order
}

func (b *stubBackend) ScoreBatch(qs [][]float64, _ core.DiffusionRequest) ([][]float64, diffuse.Stats, error) {
	if b.entered != nil {
		select {
		case b.entered <- struct{}{}:
		case <-b.opened():
		}
	}
	if b.gate != nil {
		select {
		case <-b.gate:
		case <-b.opened():
		}
	}
	b.mu.Lock()
	b.widths = append(b.widths, len(qs))
	for _, q := range qs {
		b.seen = append(b.seen, Key(q))
	}
	b.mu.Unlock()
	out := make([][]float64, len(qs))
	cs := make([]int, len(qs))
	for i, q := range qs {
		var sum float64
		for _, x := range q {
			sum += x
		}
		out[i] = []float64{sum}
		cs[i] = 3
	}
	return out, diffuse.Stats{Sweeps: 5, ColumnSweeps: cs, Converged: true}, nil
}

func (b *stubBackend) release() { b.gate <- struct{}{} }

// opened returns the channel openGate closes, creating it on first use so
// the stub's zero value stays usable.
func (b *stubBackend) opened() chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.open == nil {
		b.open = make(chan struct{})
	}
	return b.open
}

// openGate stops gating: blocked and future ScoreBatch calls proceed
// without tokens. Idempotent.
func (b *stubBackend) openGate() { b.openOnce.Do(func() { close(b.opened()) }) }
func (b *stubBackend) batchWidths() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.widths...)
}

func (b *stubBackend) sawKey(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, k := range b.seen {
		if k == key {
			return true
		}
	}
	return false
}

func q(vals ...float64) []float64 { return vals }

// waitStats polls the scheduler until cond holds (tests synchronize on
// counter transitions instead of sleeping fixed amounts).
func waitStats(t *testing.T, s *Scheduler, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(s.Stats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition never held; stats: %v", s.Stats())
}

func newTestScheduler(t *testing.T, b Backend, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// Cleanups run last-in first-out: a gated stub opens before Close waits
	// on the collector.
	if g, ok := b.(interface{ openGate() }); ok {
		t.Cleanup(g.openGate)
	}
	return s
}

func TestZeroWaitDispatchesImmediately(t *testing.T) {
	// MaxWait 0 and an idle scheduler: a lone query must dispatch at width
	// 1 without waiting for co-riders that will never come.
	b := &stubBackend{}
	s := newTestScheduler(t, b, Config{MaxWait: 0, Cache: 0})
	scores, err := s.Submit(context.Background(), q(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if scores[0] != 3 {
		t.Fatalf("scores %v", scores)
	}
	if w := b.batchWidths(); len(w) != 1 || w[0] != 1 {
		t.Fatalf("widths %v, want [1]", w)
	}
}

func TestIdleDispatchIgnoresLargeMaxWait(t *testing.T) {
	// Even with an hour of wait budget, a query that finds the scheduler
	// idle dispatches immediately — waiting buys no amortization without
	// co-riders. (If the scheduler held the batch open, this test would
	// time out.)
	b := &stubBackend{}
	s := newTestScheduler(t, b, Config{MaxWait: time.Hour})
	if _, err := s.Submit(context.Background(), q(7)); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescesQueriesQueuedDuringDispatch(t *testing.T) {
	// While one diffusion is in flight, arrivals pile up in the queue; the
	// next collect must take them all in one batch (B grows with load).
	b := &stubBackend{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	s := newTestScheduler(t, b, Config{Cache: 0})
	var wg sync.WaitGroup
	results := make([]float64, 6)
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scores, err := s.Submit(context.Background(), q(float64(i)))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = scores[0]
		}()
	}
	submit(0)
	<-b.entered // batch {0} is now blocked inside the backend
	for i := 1; i < 6; i++ {
		submit(i)
	}
	// The other five queue up behind the in-flight diffusion.
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 6 })
	b.release() // first batch (width 1)
	b.release() // second batch (the five queued)
	wg.Wait()
	for i, r := range results {
		if r != float64(i) {
			t.Fatalf("result[%d] = %v", i, r)
		}
	}
	w := b.batchWidths()
	if len(w) != 2 || w[0] != 1 || w[1] != 5 {
		t.Fatalf("widths %v, want [1 5]", w)
	}
	st := s.Stats()
	if st.BatchHist[0] != 1 || st.BatchHist[histBucket(5)] != 1 {
		t.Fatalf("histogram %v", st.BatchHist)
	}
}

func TestMaxBatchOverflowSpillsToNextBatch(t *testing.T) {
	// 9 queries queued behind a gated dispatch with MaxBatch 4 must spill
	// into ceil(9/4)=3 follow-up batches, none exceeding MaxBatch.
	b := &stubBackend{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	s := newTestScheduler(t, b, Config{MaxBatch: 4, Queue: 16, Cache: 0})
	var wg sync.WaitGroup
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), q(float64(i))); err != nil {
				t.Error(err)
			}
		}()
	}
	submit(0)
	<-b.entered // batch {0} in flight; the rest must spill 4+4+1
	for i := 1; i < 10; i++ {
		submit(i)
	}
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 10 })
	for i := 0; i < 4; i++ {
		b.release()
	}
	wg.Wait()
	widths := b.batchWidths()
	total := 0
	for _, w := range widths {
		if w > 4 {
			t.Fatalf("batch width %d exceeds MaxBatch 4 (widths %v)", w, widths)
		}
		total += w
	}
	if total != 10 {
		t.Fatalf("scored %d queries across %v, want 10", total, widths)
	}
	if st := s.Stats(); st.QueriesScored != 10 || st.Batches != 4 {
		t.Fatalf("stats %v", st)
	}
}

func TestCancelledCallerDroppedBeforeDispatch(t *testing.T) {
	// A caller that gives up mid-coalesce must be pruned from the batch:
	// its query is never scored and the cancellation is counted.
	b := &stubBackend{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	s := newTestScheduler(t, b, Config{Cache: 0})

	first := make(chan struct{})
	go func() {
		defer close(first)
		if _, err := s.Submit(context.Background(), q(1)); err != nil {
			t.Error(err)
		}
	}()
	<-b.entered // batch {1} is blocked inside the backend

	// The collector is now blocked inside the gated backend; this caller
	// queues behind it, then gives up.
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := q(42)
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, cancelled)
		errCh <- err
	}()
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 2 })
	cancel()
	// errors.Is, not identity: a wrapped cancellation cause must not pass
	// silently as "some other error".
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Submit returned %v", err)
	}

	// A third caller keeps the follow-up batch non-empty so the dispatch
	// path (where pruning happens) demonstrably ran.
	third := make(chan struct{})
	go func() {
		defer close(third)
		if _, err := s.Submit(context.Background(), q(2)); err != nil {
			t.Error(err)
		}
	}()
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 3 })
	b.release()
	b.release()
	<-first
	<-third
	if b.sawKey(Key(cancelled)) {
		t.Fatal("cancelled query was scored")
	}
	if st := s.Stats(); st.Cancelled != 1 || st.QueriesScored != 2 {
		t.Fatalf("stats %v", st)
	}
}

func TestDuplicateQueriesCoalesceIntoOneColumn(t *testing.T) {
	// Identical queries waiting in the same batch are scored once and
	// fanned out to every waiter.
	b := &stubBackend{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	s := newTestScheduler(t, b, Config{Cache: 0})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(), q(9)); err != nil {
			t.Error(err)
		}
	}()
	<-b.entered // batch {9} is blocked inside the backend
	dup := q(5, 5)
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scores, err := s.Submit(context.Background(), dup)
			if err != nil {
				t.Error(err)
				return
			}
			if scores[0] != 10 {
				t.Errorf("dup scores %v", scores)
			}
		}()
	}
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 6 })
	b.release()
	b.release()
	wg.Wait()
	if w := b.batchWidths(); len(w) != 2 || w[1] != 1 {
		t.Fatalf("widths %v, want [1 1] (five duplicates deduped)", w)
	}
}

func TestCacheServesRepeatsAndInvalidates(t *testing.T) {
	b := &stubBackend{}
	s := newTestScheduler(t, b, Config{Cache: 8})
	query := q(3, 4)
	if _, err := s.Submit(context.Background(), query); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		scores, err := s.Submit(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		if scores[0] != 7 {
			t.Fatalf("cached scores %v", scores)
		}
	}
	st := s.Stats()
	if st.Batches != 1 || st.CacheHits != 3 {
		t.Fatalf("stats %v", st)
	}
	if got := st.CacheHitRate(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("hit rate %v, want 0.75", got)
	}
	s.InvalidateCache()
	if _, err := s.Submit(context.Background(), query); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Batches != 2 {
		t.Fatalf("invalidated cache still served: %v", st)
	}
}

func TestWarmFillsCacheInOneBatch(t *testing.T) {
	b := &stubBackend{}
	s := newTestScheduler(t, b, Config{Cache: 8})
	queries := [][]float64{q(1), q(2), q(3)}
	st, err := s.Warm(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.ColumnSweeps) != 3 {
		t.Fatalf("warm stats %+v", st)
	}
	for _, query := range queries {
		if _, err := s.Submit(context.Background(), query); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats(); got.Batches != 1 || got.CacheHits != 3 {
		t.Fatalf("stats %v", got)
	}
}

func TestBackpressureRejectsWhenQueueFull(t *testing.T) {
	b := &stubBackend{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	s := newTestScheduler(t, b, Config{Queue: 1, Cache: 0})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // dispatched immediately, blocked in the gated backend
		defer wg.Done()
		if _, err := s.Submit(context.Background(), q(1)); err != nil {
			t.Error(err)
		}
	}()
	<-b.entered // the collector is occupied; the queue is empty again
	go func() { // fills the single queue slot
		defer wg.Done()
		if _, err := s.Submit(context.Background(), q(2)); err != nil {
			t.Error(err)
		}
	}()
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 2 })

	// Queue full: a caller with bounded patience must be turned away.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Submit(ctx, q(3)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("full-queue Submit returned %v", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("stats %v", st)
	}
	b.release()
	b.release()
	wg.Wait()
}

func TestCloseFlushesQueuedQueriesThenRejects(t *testing.T) {
	b := &stubBackend{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	s, err := New(b, Config{Cache: 0})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), q(float64(i))); err != nil {
				t.Error(err)
			}
		}()
	}
	submit(0)
	<-b.entered // batch {0} in flight; 1 and 2 queue behind it
	submit(1)
	submit(2)
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 3 })
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		s.Close()
	}()
	b.release()
	b.release()
	wg.Wait()
	<-closed
	if _, err := s.Submit(context.Background(), q(9)); err != ErrClosed {
		t.Fatalf("post-close Submit returned %v", err)
	}
	if st := s.Stats(); st.QueriesScored != 3 {
		t.Fatalf("close dropped queued work: %v", st)
	}
}

func TestStatsAggregateColumnSweepsAcrossBatches(t *testing.T) {
	// Satellite fix: per-request ColumnSweeps must accumulate across
	// dispatched batches so sweeps/query stays honest over a serving run.
	b := &stubBackend{}
	s := newTestScheduler(t, b, Config{Cache: 0})
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(context.Background(), q(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	// The stub reports 3 sweeps per column and 5 per batch.
	if st.ColumnSweepsTotal != 3*st.QueriesScored {
		t.Fatalf("column sweeps %d over %d queries", st.ColumnSweepsTotal, st.QueriesScored)
	}
	if got := st.SweepsPerQuery(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("sweeps/query %v, want 3", got)
	}
	if st.SweepsTotal != 5*st.Batches {
		t.Fatalf("batch sweeps %d over %d batches", st.SweepsTotal, st.Batches)
	}
}

func TestSubmitAfterCloseRejectsEvenWhenCached(t *testing.T) {
	// Close's contract ("subsequent Submits return ErrClosed") must hold
	// even for queries the cache could still answer.
	b := &stubBackend{}
	s, err := New(b, Config{Cache: 8})
	if err != nil {
		t.Fatal(err)
	}
	query := q(3, 4)
	if _, err := s.Submit(context.Background(), query); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Submit(context.Background(), query); err != ErrClosed {
		t.Fatalf("post-close cached Submit returned %v, want ErrClosed", err)
	}
}

// constBackend scores every query with a fixed column (scaled by tag so
// tests can tell backends' answers apart).
type constBackend struct {
	tag float64
	n   int
}

func (b constBackend) ScoreBatch(queries [][]float64, req core.DiffusionRequest) ([][]float64, diffuse.Stats, error) {
	out := make([][]float64, len(queries))
	for j := range out {
		col := make([]float64, b.n)
		for i := range col {
			col[i] = b.tag * float64(i+1)
		}
		out[j] = col
	}
	return out, diffuse.Stats{Sweeps: 1, Converged: true}, nil
}

func TestInvalidateNodesDropsOnlyTouchingColumns(t *testing.T) {
	s, err := New(constBackend{tag: 1, n: 4}, Config{Cache: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Hand-plant columns with controlled support.
	touchesNode2 := []float64{0, 0, 0.5, 0}
	missesNode2 := []float64{0.7, 0, 0, 0}
	subEps := []float64{0, 0, invalidateEps / 2, 0}
	s.cache.putAt(s.cache.generation(), "a", touchesNode2)
	s.cache.putAt(s.cache.generation(), "b", missesNode2)
	s.cache.putAt(s.cache.generation(), "c", subEps)
	if got := s.InvalidateNodes(nil); got != 0 {
		t.Fatalf("empty id set dropped %d", got)
	}
	if got := s.InvalidateNodes([]int{2}); got != 1 {
		t.Fatalf("dropped %d columns, want 1", got)
	}
	if _, ok := s.cache.get("a"); ok {
		t.Fatal("column touching node 2 survived")
	}
	if _, ok := s.cache.get("b"); !ok {
		t.Fatal("column missing node 2 was dropped")
	}
	if _, ok := s.cache.get("c"); !ok {
		t.Fatal("sub-tolerance column was dropped")
	}
	// A patch that grew the graph beyond a column's length invalidates it.
	if got := s.InvalidateNodes([]int{10}); got != 2 {
		t.Fatalf("out-of-range patch dropped %d columns, want 2", got)
	}
}

func TestQueueDepthStats(t *testing.T) {
	// A slow backend lets submissions pile up so the dispatch-time
	// occupancy (QueueMax) must exceed 1.
	block := make(chan struct{})
	slow := blockingBackend{release: block, n: 2}
	s, err := New(slow, Config{MaxBatch: 2, Queue: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), []float64{float64(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	// Let the first dispatch start and the rest pile up, then release.
	// Poll QueueDepth, not the channel: the collector may have drained
	// the pile into its carry-over window already (both are queued work,
	// and both feed the QueueMax observation this test asserts on), and
	// a channel-length spin would never terminate in that interleaving.
	for s.Stats().QueueDepth < 3 {
		runtime.Gosched()
	}
	close(block)
	wg.Wait()
	st := s.Stats()
	s.Close()
	if st.QueueMax < 2 {
		t.Fatalf("QueueMax %d, want ≥ 2 (piled-up queue unobserved)", st.QueueMax)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("QueueDepth %d after drain", st.QueueDepth)
	}
}

// blockingBackend blocks every ScoreBatch until release closes.
type blockingBackend struct {
	release chan struct{}
	n       int
}

func (b blockingBackend) ScoreBatch(queries [][]float64, req core.DiffusionRequest) ([][]float64, diffuse.Stats, error) {
	<-b.release
	out := make([][]float64, len(queries))
	for j := range out {
		out[j] = make([]float64, b.n)
	}
	return out, diffuse.Stats{Sweeps: 1, Converged: true}, nil
}

// TestCollectCoalescesConcurrentWaves pins the collector's idle test: with
// a wait budget configured, waves of concurrent submitters must coalesce
// into multi-column dispatches even when the collector wakes before the
// whole wave has reached the queue. GOMAXPROCS is pinned to 1 with an
// instant backend to force exactly that interleaving (the channel send
// gives the collector wake-up priority over the wave's other submitters);
// the pre-fix queue-emptiness idle test dispatched width-1 batches here
// (observed mean width ~1.1 under multi-tenant load), so this asserts
// substantially fewer dispatches than queries.
func TestCollectCoalescesConcurrentWaves(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, err := New(constBackend{tag: 1, n: 2}, Config{
		MaxBatch: 16, MaxWait: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const waves, clients = 4, 8
	for w := 0; w < waves; w++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				// Distinct queries: dedup must not be what narrows widths.
				if _, err := s.Submit(context.Background(), []float64{float64(w*clients + c)}); err != nil {
					t.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}
	st := s.Stats()
	total := uint64(waves * clients)
	if st.QueriesScored != total {
		t.Fatalf("scored %d queries, want %d", st.QueriesScored, total)
	}
	if st.Batches > total/2 {
		t.Fatalf("concurrent waves fragmented: %d dispatches for %d queries (mean width %.1f, hist %s)",
			st.Batches, total, st.MeanBatch(), st.HistString())
	}
}

// TestPressedDeadlineQueryStillScoresDense: a deadlined query that burned
// more than half its wait budget queued behind a slow diffusion still
// dispatches before its deadline and receives its dense full-vector
// column, with no miss counted; a query without a deadline behind it
// scores the same way. A Warm beforehand counts as one dispatched batch.
func TestPressedDeadlineQueryStillScoresDense(t *testing.T) {
	b := &stubBackend{}
	s := newTestScheduler(t, b, Config{Cache: 0})
	if _, err := s.Warm([][]float64{q(9)}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Batches != 1 || st.QueriesScored != 1 {
		t.Fatalf("Warm stats %v, want one batch of one column", st)
	}
	b.gate = make(chan struct{})
	b.entered = make(chan struct{}, 8)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the slow diffusion the pressed query queues behind
		defer wg.Done()
		if _, err := s.Submit(context.Background(), q(1)); err != nil {
			t.Error(err)
		}
	}()
	<-b.entered

	const budget = 600 * time.Millisecond
	var scores []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		scores, err = s.SubmitWith(context.Background(), q(2, 3), SubmitOpts{Deadline: time.Now().Add(budget)})
		if err != nil {
			t.Error(err)
		}
	}()
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 2 })
	// Burn past half the wait budget, then let the blocker finish well
	// inside the remaining half so the pressed query dispatches (not sheds).
	time.Sleep(budget/2 + 50*time.Millisecond)
	b.release()
	b.release() // the pressed query's own batch
	wg.Wait()

	if len(scores) != 1 || scores[0] != 5 {
		t.Fatalf("pressed query scores %v, want dense [5]", scores)
	}
	if st := s.Stats(); st.DeadlineMissed != 0 || st.Batches != 3 {
		t.Fatalf("stats %v, want three batches and no misses", st)
	}

	// Control: a query with no deadline. Disarm the gate first (the
	// collector is idle, so the submit-channel handoff orders this write
	// before the backend's next read).
	b.gate = nil
	scores, err := s.SubmitWith(context.Background(), q(4), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 1 || scores[0] != 4 {
		t.Fatalf("undeadlined scores %v, want dense [4]", scores)
	}
}

// TestDeadlinedAndPlainWaitersShareDenseColumn: a column shared between a
// deadline-pressed waiter and a plain waiter dispatches once, full-vector,
// and both waiters read the same dense scores.
func TestDeadlinedAndPlainWaitersShareDenseColumn(t *testing.T) {
	b := &stubBackend{}
	s := newTestScheduler(t, b, Config{Cache: 0})
	b.gate = make(chan struct{})
	b.entered = make(chan struct{}, 8)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(), q(1)); err != nil {
			t.Error(err)
		}
	}()
	<-b.entered

	shared := q(6, 7)
	const budget = 600 * time.Millisecond
	results := make([][]float64, 2)
	for i, opts := range []SubmitOpts{{Deadline: time.Now().Add(budget)}, {}} {
		wg.Add(1)
		go func(i int, opts SubmitOpts) {
			defer wg.Done()
			var err error
			results[i], err = s.SubmitWith(context.Background(), shared, opts)
			if err != nil {
				t.Error(err)
			}
		}(i, opts)
	}
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 3 })
	time.Sleep(budget/2 + 50*time.Millisecond)
	b.release()
	b.release() // the shared column dispatches as one full-vector batch
	wg.Wait()

	for i, scores := range results {
		if len(scores) != 1 || scores[0] != 13 {
			t.Fatalf("waiter %d scores %v, want dense [13]", i, scores)
		}
	}
	if st := s.Stats(); st.DeadlineMissed != 0 || st.QueriesScored != 2 {
		t.Fatalf("stats %v, want two scored columns and no misses", st)
	}
	if widths := b.batchWidths(); len(widths) != 2 || widths[1] != 1 {
		t.Fatalf("batch widths %v, want the shared column scored once", widths)
	}
}
