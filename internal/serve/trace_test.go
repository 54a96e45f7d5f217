package serve

import (
	"context"
	"sync"
	"testing"
	"time"
)

// traceSink collects Trace records thread-safely (OnTrace fires on both
// the collector and submitter goroutines).
type traceSink struct {
	mu     sync.Mutex
	traces []Trace
}

func (ts *traceSink) record(t Trace) {
	ts.mu.Lock()
	ts.traces = append(ts.traces, t)
	ts.mu.Unlock()
}

func (ts *traceSink) byPath() map[Path][]Trace {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	m := make(map[Path][]Trace)
	for _, t := range ts.traces {
		m[t.Path] = append(m[t.Path], t)
	}
	return m
}

// TestTraceAttribution drives one query through each resolution path and
// checks every submission produced exactly one trace with the right
// attribution and stage timings.
func TestTraceAttribution(t *testing.T) {
	b := &stubBackend{}
	sink := &traceSink{}
	cfg := Config{Cache: 8, OnTrace: sink.record}
	s, err := New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	q := []float64{1, 2, 3}
	if _, err := s.Submit(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	// Same query again: the column is cached now — admission fast path.
	if _, err := s.Submit(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	// Dead on arrival: shed at admission.
	if _, err := s.SubmitWith(context.Background(), []float64{9, 9, 9},
		SubmitOpts{Deadline: time.Now().Add(-time.Second)}); err != ErrDeadlineMissed {
		t.Fatalf("DOA submit: %v", err)
	}
	// A Bulk query rides the batch machinery as a scored column of its own.
	if _, err := s.SubmitWith(context.Background(), []float64{8, 8, 8}, SubmitOpts{Class: Bulk}); err != nil {
		t.Fatal(err)
	}

	// Two concurrent identical queries: one scored column, one dedup
	// co-rider (force coalescing by gating the first dispatch).
	gated := &stubBackend{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	sink2 := &traceSink{}
	cfg2 := Config{MaxWait: 50 * time.Millisecond, OnTrace: sink2.record}
	s2, err := New(gated, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var wg sync.WaitGroup
	q2 := []float64{4, 5, 6}
	wg.Add(1)
	go func() { defer wg.Done(); s2.Submit(context.Background(), []float64{7, 7, 7}) }()
	<-gated.entered // first dispatch in flight; the next two coalesce
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s2.Submit(context.Background(), q2) }()
	}
	time.Sleep(20 * time.Millisecond) // let both co-riders reach the queue
	gated.release()
	<-gated.entered
	gated.release()
	wg.Wait()

	got := sink.byPath()
	if n := len(got[PathScored]); n != 2 {
		t.Fatalf("scored traces: %d, want 2 (%v)", n, got)
	}
	for i, sc := range got[PathScored] {
		want := []Class{Interactive, Bulk}[i]
		if sc.Batch != 1 || sc.Sweeps != 5 || sc.Score <= 0 || sc.Class != want {
			t.Fatalf("scored trace %d misattributed (want class %v): %+v", i, want, sc)
		}
	}
	if n := len(got[PathCacheHit]); n != 1 {
		t.Fatalf("cache_hit traces: %d, want 1", n)
	}
	if hit := got[PathCacheHit][0]; hit.Score != 0 || hit.Err != nil {
		t.Fatalf("cache hit carries scoring state: %+v", hit)
	}
	if n := len(got[PathShed]); n != 1 || got[PathShed][0].Err != ErrDeadlineMissed {
		t.Fatalf("shed traces wrong: %v", got[PathShed])
	}

	got2 := sink2.byPath()
	if len(got2[PathDedup]) != 1 || len(got2[PathScored]) != 2 {
		t.Fatalf("coalesced pair: %d scored, %d dedup (want 2/1): %v",
			len(got2[PathScored]), len(got2[PathDedup]), got2)
	}
	dup := got2[PathDedup][0]
	if dup.Wait <= 0 || dup.Batch != 1 {
		t.Fatalf("dedup trace misattributed: %+v", dup)
	}

	// Every resolved submission traced exactly once: 4 + 3.
	if n := len(sink.traces) + len(sink2.traces); n != 7 {
		t.Fatalf("total traces %d, want 7", n)
	}
}

// TestTraceNilSinkUnchanged pins the hot-path contract: with no OnTrace
// configured the scheduler behaves identically (this is implicitly
// covered by every other serve test, but the explicit run documents it).
func TestTraceNilSinkUnchanged(t *testing.T) {
	b := &stubBackend{}
	s, err := New(b, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Submit(context.Background(), []float64{1}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Completed != 1 || st.Batches != 1 {
		t.Fatalf("stats off without sink: %+v", st)
	}
}
