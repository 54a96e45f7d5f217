// Package kit holds the measurement primitives of the repo benchmark: a
// seeded open-loop arrival schedule, latency summaries that only report a
// tail percentile the sample can support, and in-memory spans with
// self-time arithmetic. It knows nothing about the programs under test.
package kit

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"diffusearch/internal/randx"
	"diffusearch/internal/stats"
)

// PoissonSchedule returns the due offsets of an open-loop arrival process
// at the given rate (1/s) over dur: exponential gaps drawn from r, so equal
// seeds give bit-identical schedules.
func PoissonSchedule(r *randx.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= dur {
			return due
		}
		due = append(due, off)
	}
}

// TailPercentile returns the highest of p99.9, p99 and p90 that leaves at
// least ten of n samples beyond it, or 50 when even p90 cannot (n < 100).
func TailPercentile(n int) float64 {
	switch {
	case n >= 10000:
		return 99.9
	case n >= 1000:
		return 99
	case n >= 100:
		return 90
	}
	return 50
}

// Tail is the highest percentile a sample supports and its value.
type Tail struct {
	N     int
	Pct   float64 // see TailPercentile
	Value float64
}

// TailOf digests xs (any unit).
func TailOf(xs []float64) Tail {
	p := TailPercentile(len(xs))
	return Tail{N: len(xs), Pct: p, Value: stats.Percentile(xs, p)}
}

// QuietSlice cuts the samples, ordered by the time they were due, into at
// most `slices` equal consecutive slices, each large enough to leave ten
// samples beyond the p-th percentile, takes that percentile of every slice
// and returns the lowest. Whatever else runs on a shared box only ever adds
// to a latency, and it does so for seconds at a time, so the least disturbed
// slice is the best estimate of what the program itself costs; a slowdown of
// the program shows in every slice, this one included.
func QuietSlice(xs []float64, slices int, p float64) float64 {
	need := int(math.Ceil(1000/(100-p) - 1e-6)) // 1e-6: 100-99.9 is not exactly 0.1
	slices = max(min(slices, len(xs)/need), 1)
	best := math.Inf(1)
	for w := 0; w < slices; w++ {
		best = min(best, stats.Percentile(xs[w*len(xs)/slices:(w+1)*len(xs)/slices], p))
	}
	return best
}

// Span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was created. Parent is the ID of the span
// that caused this one (0 for a root); Req and Batch tie the spans of one
// request or one dispatched batch together (0 when not applicable). Counts
// carries the work counted at the same boundary (columns, sweeps, edge
// messages), so ratios are measured where the work happens.
type Span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Req    int64            `json:"req,omitempty"`
	Batch  int64            `json:"batch,omitempty"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps spans in memory until the benchmark ends. A nil Recorder
// records nothing, so untraced runs share the call sites.
type Recorder struct {
	t0 time.Time

	mu    sync.Mutex
	next  int64
	spans []Span
}

// NewRecorder starts the span clock.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Offset converts a wall-clock instant to the recorder's span clock.
func (r *Recorder) Offset(t time.Time) int64 { return t.Sub(r.t0).Nanoseconds() }

// NextID reserves a span ID, so a parent can be named by its children
// before the parent itself has ended.
func (r *Recorder) NextID() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// Add records s as having run from start to end and returns its ID; a zero
// s.ID is assigned now.
func (r *Recorder) Add(s Span, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	s.Start, s.End = r.Offset(start), r.Offset(end)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == 0 {
		r.next++
		s.ID = r.next
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once; a child reaching outside its parent is clipped).
func SelfTimes(spans []Span) map[int64]time.Duration {
	type iv struct{ lo, hi int64 }
	kids := make(map[int64][]iv)
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[p.ID] = append(kids[p.ID], iv{lo, hi})
			}
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, edge := int64(0), s.Start
		for _, c := range ivs {
			if c.hi <= edge {
				continue
			}
			covered += c.hi - max(c.lo, edge)
			edge = c.hi
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// SelfByName sums self times per span name.
func SelfByName(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// WriteJSONL writes one span per line.
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
