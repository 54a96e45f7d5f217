package serve

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"

	"diffusearch/internal/diffuse"
)

// waitWindow bounds the wait-time sample ring the quantiles are computed
// over: large enough to smooth a load sweep level, small enough that a
// long-running scheduler reports recent behaviour, not its whole life.
const waitWindow = 4096

// histBuckets is the number of power-of-two batch-width buckets tracked:
// bucket i counts batches of width in (2^(i-1), 2^i], so bucket 0 is
// exactly width 1 and bucket 11 reaches width 2048 — beyond any plausible
// MaxBatch.
const histBuckets = 12

// Stats is a snapshot of a Scheduler's counters. All counters are
// cumulative since construction except the wait quantiles, which cover a
// sliding window of the last waitWindow coalesced queries.
type Stats struct {
	Submitted uint64 // queries admitted to the queue
	Completed uint64 // queries resolved with scores
	Cancelled uint64 // dropped from a batch before dispatch (caller gave up)
	Rejected  uint64 // gave up while the bounded queue was full (backpressure)
	Errors    uint64 // queries resolved with a backend error
	CacheHits uint64 // served from the LRU cache (fast path or while queued)

	// DeadlineMissed counts queries shed because their deadline expired
	// before dispatch (at admission, while the queue was full, or while
	// waiting in the coalesce window) — rejected with ErrDeadlineMissed,
	// never scored.
	DeadlineMissed uint64
	// BulkPromoted counts selections where the starvation valve fired: a
	// Bulk query passed over BulkEvery times was elevated to Interactive
	// rank and dispatched (one per selection, so a whole over-budget burst
	// drains at a bounded rate instead of flooding one batch).
	BulkPromoted uint64

	Batches       uint64 // diffusions dispatched (including Warm)
	QueriesScored uint64 // columns diffused, after cancellation/cache/dedup

	// QueueDepth is the submission-queue occupancy at snapshot time and
	// QueueMax the deepest occupancy observed at any dispatch since
	// construction. Together with Rejected they make backpressure visible
	// before it becomes p99: a QueueMax hugging the queue bound means
	// submitters are about to block, and Rejected counts the ones whose
	// patience ran out while blocked.
	QueueDepth int
	QueueMax   int

	// BatchHist is the realized batch-width histogram in power-of-two
	// buckets: BatchHist[i] counts dispatches of width in (2^(i-1), 2^i]
	// (bucket 0 is exactly width 1).
	BatchHist [histBuckets]uint64

	// ClassHist are per-class realized width histograms: for every
	// dispatched batch, the number of its scored columns of each class is
	// bucketed like BatchHist (batches with zero columns of a class do not
	// count toward that class's histogram). Index with Interactive / Bulk.
	ClassHist [NumClasses][histBuckets]uint64

	// Wait quantiles of the coalescing delay (arrival → dispatch start)
	// over the sliding sample window. The scoring time itself is excluded:
	// these measure what MaxWait bounds.
	WaitP50, WaitP90, WaitP99, WaitMax time.Duration

	// ClassWait are the same quantiles split by scheduling class, each over
	// its own sliding window — the Interactive row is what the priority
	// scheduler protects, the Bulk row what BulkMaxWait spends.
	ClassWait [NumClasses]WaitQuantiles

	// SweepsTotal sums Stats.Sweeps over dispatched batches (whole-batch
	// diffusion rounds). ColumnSweepsTotal sums the per-column sweep counts
	// instead, so SweepsPerQuery() reports what each query actually cost —
	// a batch's Sweeps is its slowest column, which would overstate the
	// per-query cost of every early-terminated column.
	SweepsTotal       uint64
	ColumnSweepsTotal uint64

	// MessagesTotal sums the dispatched batches' embedding-message counts
	// (diffuse.Stats.Messages) — the paper's headline traffic metric,
	// aggregated where the batches are dispatched so msgs/query needs no
	// second bookkeeper.
	MessagesTotal uint64

	// CacheBytes is the LRU score cache's live payload size at snapshot
	// time (keys plus score columns) — the memory the Cache entry bound
	// actually admitted, in bytes.
	CacheBytes int64
}

// WaitQuantiles are coalescing-wait quantiles over one class's sliding
// sample window.
type WaitQuantiles struct {
	P50, P90, P99, Max time.Duration
}

// MeanBatch returns the mean realized batch width (scored columns per
// dispatched diffusion), or 0 before any dispatch.
func (s Stats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.QueriesScored) / float64(s.Batches)
}

// CacheHitRate returns the fraction of resolved queries served from the
// cache.
func (s Stats) CacheHitRate() float64 {
	den := s.CacheHits + s.Completed
	if den == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(den)
}

// SweepsPerQuery returns the aggregated per-column diffusion sweeps per
// scored query (the honest amortized cost; see SweepsTotal).
func (s Stats) SweepsPerQuery() float64 {
	if s.QueriesScored == 0 {
		return 0
	}
	return float64(s.ColumnSweepsTotal) / float64(s.QueriesScored)
}

// MessagesPerQuery returns the amortized embedding messages per scored
// query — batch coalescing exists to push this down.
func (s Stats) MessagesPerQuery() float64 {
	if s.QueriesScored == 0 {
		return 0
	}
	return float64(s.MessagesTotal) / float64(s.QueriesScored)
}

// String renders a one-line summary for logs and shutdown banners.
func (s Stats) String() string {
	line := fmt.Sprintf(
		"submitted=%d completed=%d cancelled=%d rejected=%d errors=%d cache_hits=%d (rate %.2f) batches=%d scored=%d mean_batch=%.1f sweeps/query=%.1f queue_max=%d wait p50=%v p99=%v hist=%s",
		s.Submitted, s.Completed, s.Cancelled, s.Rejected, s.Errors,
		s.CacheHits, s.CacheHitRate(), s.Batches, s.QueriesScored,
		s.MeanBatch(), s.SweepsPerQuery(), s.QueueMax, s.WaitP50, s.WaitP99, s.HistString())
	if s.DeadlineMissed > 0 || s.BulkPromoted > 0 {
		line += fmt.Sprintf(" deadline_missed=%d bulk_promoted=%d", s.DeadlineMissed, s.BulkPromoted)
	}
	if s.CacheBytes > 0 {
		line += fmt.Sprintf(" cache_bytes=%d", s.CacheBytes)
	}
	if s.QueueDepth > 0 {
		line += fmt.Sprintf(" queue_depth=%d", s.QueueDepth)
	}
	if s.ClassWait[Interactive].Max > 0 || s.ClassWait[Bulk].Max > 0 {
		line += fmt.Sprintf(" int_wait p50=%v p99=%v bulk_wait p50=%v p99=%v",
			s.ClassWait[Interactive].P50, s.ClassWait[Interactive].P99,
			s.ClassWait[Bulk].P50, s.ClassWait[Bulk].P99)
	}
	if s.MessagesTotal > 0 {
		line += fmt.Sprintf(" msgs/query=%.0f", s.MessagesPerQuery())
	}
	return line
}

// HistString renders the non-empty histogram buckets as "≤w:count" pairs.
func (s Stats) HistString() string {
	var parts []string
	for i, c := range s.BatchHist {
		if c == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("≤%d:%d", 1<<i, c))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// histBucket maps a batch width to its histogram bucket.
func histBucket(width int) int {
	if width <= 1 {
		return 0
	}
	b := bits.Len(uint(width - 1))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// waitRing is one sliding window of coalescing-wait samples.
type waitRing struct {
	waits [waitWindow]time.Duration
	idx   int
	count int
}

func (r *waitRing) add(d time.Duration) {
	r.waits[r.idx] = d
	r.idx = (r.idx + 1) % waitWindow
	if r.count < waitWindow {
		r.count++
	}
}

// quantiles sorts a copy of the live window and reads the quantiles off it.
func (r *waitRing) quantiles() WaitQuantiles {
	if r.count == 0 {
		return WaitQuantiles{}
	}
	sample := make([]time.Duration, r.count)
	copy(sample, r.waits[:r.count])
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	q := func(p float64) time.Duration {
		return sample[int(p*float64(len(sample)-1))]
	}
	return WaitQuantiles{P50: q(0.50), P90: q(0.90), P99: q(0.99), Max: sample[len(sample)-1]}
}

// metrics is the scheduler-internal mutable counterpart of Stats: one
// mutex-guarded counter block plus the wait-sample rings (one aggregate,
// one per class).
type metrics struct {
	mu sync.Mutex
	s  Stats // wait-quantile fields unused; filled by snapshot

	waits      waitRing
	classWaits [NumClasses]waitRing
}

func (m *metrics) submitted() { m.mu.Lock(); m.s.Submitted++; m.mu.Unlock() }
func (m *metrics) completed() { m.mu.Lock(); m.s.Completed++; m.mu.Unlock() }
func (m *metrics) cancelled() { m.mu.Lock(); m.s.Cancelled++; m.mu.Unlock() }
func (m *metrics) rejected()  { m.mu.Lock(); m.s.Rejected++; m.mu.Unlock() }
func (m *metrics) cacheHit()  { m.mu.Lock(); m.s.CacheHits++; m.mu.Unlock() }

func (m *metrics) deadlineMissed() { m.mu.Lock(); m.s.DeadlineMissed++; m.mu.Unlock() }

// promoted records Bulk queries crossing the starvation bound.
func (m *metrics) promoted(n int) {
	m.mu.Lock()
	m.s.BulkPromoted += uint64(n)
	m.mu.Unlock()
}

// failed records a batch whose backend call errored: every scored-for
// caller sees the error.
func (m *metrics) failed(width int) {
	m.mu.Lock()
	m.s.Errors += uint64(width)
	m.mu.Unlock()
}

// queueDepth records the submission-queue occupancy seen at a dispatch,
// keeping the high-water mark.
func (m *metrics) queueDepth(depth int) {
	m.mu.Lock()
	if depth > m.s.QueueMax {
		m.s.QueueMax = depth
	}
	m.mu.Unlock()
}

func (m *metrics) waited(d time.Duration, class Class) {
	m.mu.Lock()
	m.waits.add(d)
	if int(class) < NumClasses {
		m.classWaits[class].add(d)
	}
	m.mu.Unlock()
}

// dispatched records one scored batch: its realized width (split by column
// class), its whole-batch sweep count, and the aggregated per-column
// sweeps — a per-request Stats.ColumnSweeps only describes one diffusion,
// so the scheduler sums them across batches to report honest sweeps/query.
func (m *metrics) dispatched(width, nInteractive, nBulk int, st diffuse.Stats) {
	m.mu.Lock()
	m.s.Batches++
	m.s.QueriesScored += uint64(width)
	m.s.BatchHist[histBucket(width)]++
	if nInteractive > 0 {
		m.s.ClassHist[Interactive][histBucket(nInteractive)]++
	}
	if nBulk > 0 {
		m.s.ClassHist[Bulk][histBucket(nBulk)]++
	}
	m.s.SweepsTotal += uint64(st.Sweeps)
	m.s.MessagesTotal += uint64(st.Messages)
	if len(st.ColumnSweeps) > 0 {
		for _, cs := range st.ColumnSweeps {
			m.s.ColumnSweepsTotal += uint64(cs)
		}
	} else {
		// A backend that does not report per-column sweeps (e.g. a filter
		// run) costs its batch sweep count on every column.
		m.s.ColumnSweepsTotal += uint64(st.Sweeps) * uint64(width)
	}
	m.mu.Unlock()
}

func (m *metrics) snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.s
	agg := m.waits.quantiles()
	st.WaitP50, st.WaitP90, st.WaitP99, st.WaitMax = agg.P50, agg.P90, agg.P99, agg.Max
	for c := range m.classWaits {
		st.ClassWait[c] = m.classWaits[c].quantiles()
	}
	return st
}
