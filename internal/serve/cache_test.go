package serve

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
)

func TestKeyIsExact(t *testing.T) {
	a := []float64{1.0, 2.0}
	b := []float64{1.0, 2.0}
	if Key(a) != Key(b) {
		t.Fatal("identical queries must share a key")
	}
	// One ULP apart must not collide — keys are the exact bit pattern.
	c := []float64{1.0, math.Nextafter(2.0, 3.0)}
	if Key(a) == Key(c) {
		t.Fatal("distinct queries collided")
	}
	if Key(nil) != Key([]float64{}) {
		t.Fatal("empty queries must share the empty key")
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU(2)
	c.putAt(c.generation(), "a", []float64{1})
	c.putAt(c.generation(), "b", []float64{2})
	if _, ok := c.get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.putAt(c.generation(), "c", []float64{3}) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if sc, ok := c.get("a"); !ok || sc[0] != 1 {
		t.Fatalf("a lost: %v %v", sc, ok)
	}
	if sc, ok := c.get("c"); !ok || sc[0] != 3 {
		t.Fatalf("c lost: %v %v", sc, ok)
	}
	if c.len() != 2 {
		t.Fatalf("len %d", c.len())
	}
}

func TestLRURefreshKeepsSingleEntry(t *testing.T) {
	c := newLRU(2)
	c.putAt(c.generation(), "a", []float64{1})
	c.putAt(c.generation(), "a", []float64{9})
	if sc, _ := c.get("a"); sc[0] != 9 {
		t.Fatalf("refresh lost: %v", sc)
	}
	if c.len() != 1 {
		t.Fatalf("len %d", c.len())
	}
}

func TestLRUClear(t *testing.T) {
	c := newLRU(4)
	c.putAt(c.generation(), "a", []float64{1})
	c.clear()
	if _, ok := c.get("a"); ok || c.len() != 0 {
		t.Fatal("clear left entries")
	}
	c.putAt(c.generation(), "b", []float64{2}) // still usable after clear
	if _, ok := c.get("b"); !ok {
		t.Fatal("cache unusable after clear")
	}
}

func TestZeroCapacityDisablesCache(t *testing.T) {
	c := newLRU(0)
	c.putAt(c.generation(), "a", []float64{1})
	if _, ok := c.get("a"); ok {
		t.Fatal("disabled cache served an entry")
	}
	if c.len() != 0 {
		t.Fatalf("len %d", c.len())
	}
}

func TestHistBucketBoundaries(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 64: 6, 65: 7, 1 << 20: histBuckets - 1}
	for width, want := range cases {
		if got := histBucket(width); got != want {
			t.Fatalf("histBucket(%d) = %d, want %d", width, got, want)
		}
	}
}

// versionedBackend scores every query with its current version number (a
// stand-in for a topology patch swapping the mirror: bump the version,
// invalidate, and any column scored against the old version is stale).
// When gated, ScoreBatch blocks between capturing the version and
// returning, so tests can land an invalidation exactly inside a dispatch.
type versionedBackend struct {
	version atomic.Int64
	gate    chan struct{} // nil: ungated
	entered chan struct{} // signalled on entry when non-nil
}

func (b *versionedBackend) ScoreBatch(qs [][]float64, _ core.DiffusionRequest) ([][]float64, diffuse.Stats, error) {
	v := float64(b.version.Load())
	if b.entered != nil {
		b.entered <- struct{}{}
	}
	if b.gate != nil {
		<-b.gate
	}
	out := make([][]float64, len(qs))
	for j := range out {
		out[j] = []float64{v, 1} // index 1 carries mass so InvalidateNodes([]{1}) hits
	}
	return out, diffuse.Stats{Sweeps: 1, Converged: true}, nil
}

// TestInvalidateNodesDropsColumnScoredBeforeInvalidation pins the PR 4
// generation guard on its race path (only the happy path was tested): a
// targeted invalidation landing while a batch is inside the backend must
// keep that batch's columns out of the cache — they were scored against
// the pre-patch state.
func TestInvalidateNodesDropsColumnScoredBeforeInvalidation(t *testing.T) {
	b := &versionedBackend{gate: make(chan struct{}), entered: make(chan struct{}, 4)}
	s, err := New(b, Config{Cache: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), []float64{7})
		done <- err
	}()
	<-b.entered // the dispatch captured its cache generation and is scoring

	// The "patch": the backend's answers change and the targeted
	// invalidation runs — while the old-version batch is still in flight.
	b.version.Store(1)
	s.InvalidateNodes([]int{1})

	b.gate <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The in-flight column must not have re-entered the cache: a repeat
	// Submit has to trigger a second dispatch and see the new version.
	go func() { b.gate <- struct{}{} }() // release the second dispatch
	scores, err := s.Submit(context.Background(), []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if scores[0] != 1 {
		t.Fatalf("served version %g after invalidation, want 1 (stale column re-cached)", scores[0])
	}
	if st := s.Stats(); st.Batches != 2 || st.CacheHits != 0 {
		t.Fatalf("stale column served from cache: %v", st)
	}
}

// TestInvalidateNodesConcurrentWithSubmitAndPatch hammers the generation
// guard from three sides at once — Submits, targeted invalidations, and
// version patches — and then checks the only invariant that must survive
// arbitrary interleaving: after the last patch and invalidation, nothing
// pre-patch is served. Run in CI's race step (this package).
func TestInvalidateNodesConcurrentWithSubmitAndPatch(t *testing.T) {
	b := &versionedBackend{}
	s, err := New(b, Config{Cache: 32, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const (
		submitters = 4
		rounds     = 50
	)
	queries := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < submitters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Submit(context.Background(), queries[(c+i)%len(queries)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	for i := 0; i < rounds; i++ {
		b.version.Add(1)
		if i%3 == 0 {
			s.InvalidateCache()
		} else {
			s.InvalidateNodes([]int{1})
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: one final patch + targeted invalidation, then every cached
	// answer must carry the final version.
	b.version.Add(1)
	final := float64(b.version.Load())
	s.InvalidateNodes([]int{1})
	for _, q := range queries {
		scores, err := s.Submit(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if scores[0] != final {
			t.Fatalf("query %v served version %g after final invalidation, want %g", q, scores[0], final)
		}
	}
}

func TestPutAtDropsStaleGenerations(t *testing.T) {
	c := newLRU(4)
	gen := c.generation()
	c.clear() // an invalidation lands while a scorer is in flight
	c.putAt(gen, "stale", []float64{1})
	if _, ok := c.get("stale"); ok {
		t.Fatal("column scored before an invalidation re-entered the cache")
	}
	c.putAt(c.generation(), "fresh", []float64{2})
	if _, ok := c.get("fresh"); !ok {
		t.Fatal("current-generation put rejected")
	}
	// dropIf bumps the generation too: an in-flight batch may hold columns
	// the predicate would have dropped.
	gen = c.generation()
	c.dropIf(func([]float64) bool { return false })
	c.putAt(gen, "stale2", []float64{3})
	if _, ok := c.get("stale2"); ok {
		t.Fatal("column scored before a targeted invalidation re-entered the cache")
	}
}

// TestCacheBytesGauge: Stats.CacheBytes tracks the LRU payload through
// fills, evictions, and invalidation.
func TestCacheBytesGauge(t *testing.T) {
	b := &stubBackend{}
	s, err := New(b, Config{Cache: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.CacheBytes != 0 {
		t.Fatalf("fresh cache reports %d bytes", st.CacheBytes)
	}
	// Each entry: 2-component query key (16 bytes) + 1 score (8 bytes).
	const per = 16 + 8
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(context.Background(), []float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 2: the third insert evicted the first.
	if st := s.Stats(); st.CacheBytes != 2*per {
		t.Fatalf("CacheBytes = %d, want %d", st.CacheBytes, 2*per)
	}
	s.InvalidateCache()
	if st := s.Stats(); st.CacheBytes != 0 {
		t.Fatalf("CacheBytes after clear = %d, want 0", st.CacheBytes)
	}
}

// TestInvalidateNodesBoundary pins the ≥ contract: a cached column whose
// mass at a patched node is EXACTLY invalidateEps must drop (the old
// strict > kept it serving stale scores).
func TestInvalidateNodesBoundary(t *testing.T) {
	c := newLRU(4)
	c.putAt(c.generation(), "at", []float64{0, invalidateEps, 0})
	c.putAt(c.generation(), "below", []float64{0, invalidateEps / 2, 0})
	c.putAt(c.generation(), "neg", []float64{0, -invalidateEps, 0})

	s := &Scheduler{cache: c}
	if dropped := s.InvalidateNodes([]int{1}); dropped != 2 {
		t.Fatalf("dropped %d columns, want 2 (both ±eps boundaries)", dropped)
	}
	if _, ok := c.get("at"); ok {
		t.Fatal("column with mass exactly at invalidateEps survived")
	}
	if _, ok := c.get("neg"); ok {
		t.Fatal("column with mass exactly at -invalidateEps survived")
	}
	if _, ok := c.get("below"); !ok {
		t.Fatal("column safely below the threshold was dropped")
	}
}

// TestLRUByteAccounting exercises the lru gauge directly across refresh,
// eviction, and dropIf — putAt refreshing an entry with a different
// column length must adjust, not double-count.
func TestLRUByteAccounting(t *testing.T) {
	c := newLRU(2)
	c.putAt(c.generation(), "a", []float64{1, 2})
	c.putAt(c.generation(), "b", []float64{3})
	want := int64(1+16) + int64(1+8)
	if got := c.sizeBytes(); got != want {
		t.Fatalf("sizeBytes = %d, want %d", got, want)
	}
	c.putAt(c.generation(), "a", []float64{1, 2, 3}) // refresh, longer
	want += 8
	if got := c.sizeBytes(); got != want {
		t.Fatalf("after refresh: sizeBytes = %d, want %d", got, want)
	}
	c.putAt(c.generation(), "cc", []float64{4}) // evicts LRU ("b")
	want = int64(1+24) + int64(2+8)
	if got := c.sizeBytes(); got != want {
		t.Fatalf("after eviction: sizeBytes = %d, want %d", got, want)
	}
	c.dropIf(func([]float64) bool { return true })
	if got := c.sizeBytes(); got != 0 {
		t.Fatalf("after dropIf all: sizeBytes = %d, want 0", got)
	}
}
