package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/graph"
)

// rankedStubBackend extends stubBackend with the RankedBackend surface:
// every ranked column resolves to node 0 scored at twice the query's
// component sum — distinguishable from the full-vector stub answer (the
// plain sum), so tests can prove which path produced a result.
type rankedStubBackend struct {
	stubBackend

	rmu        sync.Mutex
	topkWidths []int // realized width of every ScoreBatchTopK call
	topkKs     []int // req.TopK of every ScoreBatchTopK call, in order
}

func (b *rankedStubBackend) ScoreBatchTopK(qs [][]float64, req core.DiffusionRequest) ([]core.RankedResult, diffuse.Stats, error) {
	b.rmu.Lock()
	b.topkWidths = append(b.topkWidths, len(qs))
	b.topkKs = append(b.topkKs, req.TopK)
	b.rmu.Unlock()
	out := make([]core.RankedResult, len(qs))
	cs := make([]int, len(qs))
	for i, q := range qs {
		var sum float64
		for _, x := range q {
			sum += x
		}
		out[i] = core.RankedResult{IDs: []graph.NodeID{0}, Scores: []float64{2 * sum}, Certified: true}
		cs[i] = 2
	}
	return out, diffuse.Stats{Sweeps: 3, ColumnSweeps: cs, Converged: true}, nil
}

func (b *rankedStubBackend) topkCalls() (widths, ks []int) {
	b.rmu.Lock()
	defer b.rmu.Unlock()
	return append([]int(nil), b.topkWidths...), append([]int(nil), b.topkKs...)
}

// TestRankedKeyNeverAliases pins the keyspace partition the dedup and
// cache layers rely on: a RankedKey is 8m+9 bytes — never the multiple of
// 8 a plain Key is — so no (query, k) submission can collide with any
// full-vector query's bit pattern, and distinct (query, k) pairs differ.
// It also pins the Class audit: the class enters neither key (the same
// query yields the same scores regardless of scheduling class).
func TestRankedKeyNeverAliases(t *testing.T) {
	queries := [][]float64{
		{},
		{0},
		{1},
		{1, 2},
		{1, 2, 3},
		{1, 2, 3, 4},
	}
	ks := []int{1, 2, 10, 1 << 40}
	seen := make(map[string]string)
	add := func(key, desc string) {
		if prev, ok := seen[key]; ok {
			t.Fatalf("key collision: %s aliases %s", desc, prev)
		}
		seen[key] = desc
	}
	for qi, query := range queries {
		key := Key(query)
		if len(key)%8 != 0 {
			t.Fatalf("Key length %d not a multiple of 8", len(key))
		}
		add(key, fmt.Sprintf("Key(q%d)", qi))
		for _, k := range ks {
			rk := RankedKey(query, k)
			if len(rk)%8 != 1 {
				t.Fatalf("RankedKey length %d is 8m+%d, want 8m+1", len(rk), len(rk)%8)
			}
			add(rk, fmt.Sprintf("RankedKey(q%d,%d)", qi, k))
		}
	}
	// Determinism: resubmitting the same (query, k) must coalesce.
	if RankedKey(queries[3], 10) != RankedKey(queries[3], 10) {
		t.Fatal("RankedKey not deterministic")
	}
	// Class is not a key input: SubmitOpts has no hook into Key/RankedKey
	// at all — both are pure functions of (query[, k]).
	// Behavioural half of the audit: a cached full-vector column must never
	// answer a ranked submission for the same query.
	b := &rankedStubBackend{}
	s := newTestScheduler(t, b, Config{Cache: 8})
	query := q(3, 4)
	if _, err := s.Submit(context.Background(), query); err != nil {
		t.Fatal(err)
	}
	r, err := s.SubmitRanked(context.Background(), query, 1, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Certified || len(r.Scores) != 1 || r.Scores[0] != 14 {
		t.Fatalf("ranked result %+v, want certified [14] from the ranked path", r)
	}
	if widths, _ := b.topkCalls(); len(widths) != 1 {
		t.Fatalf("ScoreBatchTopK called %d times, want 1 (cache must not serve ranked)", len(widths))
	}
	if st := s.Stats(); st.CacheHits != 0 || st.RankedScored != 1 {
		t.Fatalf("stats %v", st)
	}
}

func TestSubmitRankedValidation(t *testing.T) {
	b := &rankedStubBackend{}
	s := newTestScheduler(t, b, Config{})
	if _, err := s.SubmitRanked(context.Background(), q(1), 0, SubmitOpts{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := s.SubmitRanked(context.Background(), q(1), -3, SubmitOpts{}); err == nil {
		t.Fatal("negative k accepted")
	}
}

func TestSubmitRankedRequiresRankedBackend(t *testing.T) {
	// Against a plain Backend the failure is synchronous — no admission, no
	// queue slot, no counter movement.
	b := &stubBackend{}
	s := newTestScheduler(t, b, Config{})
	if _, err := s.SubmitRanked(context.Background(), q(1), 3, SubmitOpts{}); err == nil {
		t.Fatal("plain backend accepted a ranked submission")
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Fatalf("failed ranked submission was admitted: %v", st)
	}
}

func TestSubmitRankedCoalescesSameK(t *testing.T) {
	// Same-(query, k) submissions dedup into one ranked column; same-k
	// columns share one ScoreBatchTopK call; distinct k dispatch as separate
	// groups in ascending k.
	b := &rankedStubBackend{}
	b.gate = make(chan struct{})
	b.entered = make(chan struct{}, 8)
	s := newTestScheduler(t, b, Config{Cache: 0})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the collector inside the gated ScoreBatch
		defer wg.Done()
		if _, err := s.Submit(context.Background(), q(1)); err != nil {
			t.Error(err)
		}
	}()
	<-b.entered

	dup := q(5, 5)
	ranked := func(query []float64, k int, want float64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := s.SubmitRanked(context.Background(), query, k, SubmitOpts{})
			if err != nil {
				t.Error(err)
				return
			}
			if !r.Certified || r.Scores[0] != want {
				t.Errorf("ranked(%v, k=%d) = %+v, want certified score %v", query, k, r, want)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		ranked(dup, 3, 20) // four duplicates: one column
	}
	ranked(q(2), 3, 4) // same k, distinct query: same ScoreBatchTopK call
	ranked(dup, 7, 20) // same query, distinct k: separate group
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 7 })
	b.release()
	wg.Wait()

	widths, ks := b.topkCalls()
	if len(widths) != 2 || widths[0] != 2 || widths[1] != 1 {
		t.Fatalf("topk widths %v, want [2 1]", widths)
	}
	if ks[0] != 3 || ks[1] != 7 {
		t.Fatalf("topk ks %v, want ascending [3 7]", ks)
	}
	st := s.Stats()
	if st.RankedScored != 3 || st.Downgraded != 0 {
		t.Fatalf("stats %v, want 3 ranked columns", st)
	}
}

func TestDowngradeConvertsPressedFullVectorQuery(t *testing.T) {
	// A full-vector query that opted into DowngradeTopK and burned more than
	// half its wait budget queued behind a slow diffusion must ride the
	// ranked path and receive a sparse full-length answer; an unpressed
	// opt-in stays full-vector.
	b := &rankedStubBackend{}
	s := newTestScheduler(t, b, Config{Cache: 0})
	// Teach the scheduler the column length (the stub's columns have one
	// node); downgrades are inert until a full-vector dispatch is observed.
	if _, err := s.Warm([][]float64{q(9)}); err != nil {
		t.Fatal(err)
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
		scores, err = s.SubmitWith(context.Background(), q(2, 3), SubmitOpts{
			Deadline:      time.Now().Add(budget),
			DowngradeTopK: 2,
		})
		if err != nil {
			t.Error(err)
		}
	}()
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 2 })
	// Burn past half the wait budget, then let the blocker finish well
	// inside the remaining half so the pressed query dispatches (not sheds).
	time.Sleep(budget/2 + 50*time.Millisecond)
	b.release()
	wg.Wait()

	// The ranked stub scores node 0 at twice the sum (10); the full-vector
	// stub would have answered the plain sum (5). A sparse answer spanning
	// the observed column length proves the downgrade fired.
	if len(scores) != 1 || scores[0] != 10 {
		t.Fatalf("downgraded scores %v, want sparse [10] from the ranked path", scores)
	}
	st := s.Stats()
	if st.Downgraded != 1 || st.DeadlineMissed != 0 {
		t.Fatalf("stats %v, want exactly one downgrade and no misses", st)
	}

	// Control: an opt-in with no deadline is never pressed — full vector.
	// Disarm the gate first: the control dispatches through ScoreBatch (the
	// collector is idle, so the submit-channel handoff orders this write
	// before the backend's next read).
	b.gate = nil
	scores, err := s.SubmitWith(context.Background(), q(4), SubmitOpts{DowngradeTopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 1 || scores[0] != 4 {
		t.Fatalf("unpressed opt-in scores %v, want dense [4] from ScoreBatch", scores)
	}
	if st := s.Stats(); st.Downgraded != 1 {
		t.Fatalf("unpressed opt-in downgraded: %v", st)
	}
}

func TestDowngradeVetoedByMixedWaiters(t *testing.T) {
	// Downgrade is unanimous: a column shared between an opt-in waiter and a
	// plain waiter must dispatch full-vector — the plain waiter expects
	// dense scores.
	b := &rankedStubBackend{}
	s := newTestScheduler(t, b, Config{Cache: 0})
	if _, err := s.Warm([][]float64{q(9)}); err != nil {
		t.Fatal(err)
	}
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
	for i, opts := range []SubmitOpts{
		{Deadline: time.Now().Add(budget), DowngradeTopK: 2},
		{}, // the veto: no opt-in
	} {
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
	b.release() // the shared column dispatches as a plain full-vector batch
	wg.Wait()

	for i, scores := range results {
		if len(scores) != 1 || scores[0] != 13 {
			t.Fatalf("waiter %d scores %v, want dense [13]", i, scores)
		}
	}
	st := s.Stats()
	if st.Downgraded != 0 {
		t.Fatalf("vetoed column downgraded: %v", st)
	}
	if widths, _ := b.topkCalls(); len(widths) != 0 {
		t.Fatalf("ScoreBatchTopK called %d times, want 0", len(widths))
	}
}
