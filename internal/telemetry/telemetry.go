// Package telemetry is the repo-wide metrics layer: a dependency-free
// registry of atomic counters, float gauges, fixed-bucket histograms,
// and sliding quantile windows, with a Prometheus text-format (0.0.4)
// exposition writer behind Registry.WritePrometheus and Registry.Handler.
//
// The design constraints come from the diffusion hot path. Engines call
// into observers once per sweep from their coordinating goroutine, so
// every mutation primitive here is wait-free or near it: Counter.Inc and
// Histogram.Observe are single atomic adds (plus one CAS loop for the
// histogram sum), Gauge.Set is one atomic store, and only Window.Observe
// takes a mutex — and that type is reserved for per-query serving
// latencies, never per-sweep data. Reads are allowed to be slightly torn
// (a histogram snapshot can straddle a concurrent Observe); exposition
// is monitoring, not accounting.
//
// Registration is get-or-create and safe for concurrent use: asking for
// an existing (name, label set) pair returns the same metric, so call
// sites need no setup-order coordination. A name is permanently bound to
// its first kind; re-registering it under another kind is a programmer
// error and panics. For series whose label values are only known at
// scrape time (scheduler stats, routing-filter state), register a
// Producer callback instead of mirroring every update into the registry.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// kind is the exposition TYPE of a metric family.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
	kindSummary   kind = "summary"
)

// Registry holds metric families keyed by name. The zero value is not
// usable; call New.
type Registry struct {
	mu        sync.RWMutex
	fams      map[string]*family
	producers []func(*Emitter)
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

type family struct {
	name string
	help string
	kind kind

	mu      sync.Mutex
	metrics map[string]metric // rendered label set -> metric
}

// metric is anything a family can hold; sampleInto appends the rendered
// exposition samples for one label set.
type metric interface {
	sampleInto(dst []sample, name, labels string) []sample
}

type sample struct {
	name   string
	labels string
	value  float64
}

func (r *Registry) family(name, help string, k kind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, metrics: make(map[string]metric)}
		r.fams[name] = f
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.kind, k))
	}
	return f
}

func (f *family) metric(labels string, mk func() metric) metric {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.metrics[labels]
	if m == nil {
		m = mk()
		f.metrics[labels] = m
	}
	return m
}

// Counter returns the monotone counter registered under name with the
// given ("key", "value", ...) label pairs, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	f := r.family(name, help, kindCounter)
	return f.metric(renderLabels(labels), func() metric { return &Counter{} }).(*Counter)
}

// Gauge returns the float gauge registered under name, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	f := r.family(name, help, kindGauge)
	return f.metric(renderLabels(labels), func() metric { return &Gauge{} }).(*Gauge)
}

// Histogram returns the fixed-bucket histogram registered under name,
// creating it on first use with the given ascending upper bounds (an
// implicit +Inf bucket is always appended). A second registration under
// the same name and labels returns the existing histogram, bounds
// untouched.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	f := r.family(name, help, kindHistogram)
	return f.metric(renderLabels(labels), func() metric { return newHistogram(bounds) }).(*Histogram)
}

// Window returns the sliding quantile window registered under name,
// creating it on first use with capacity size (minimum 1). Windows are
// exposed as Prometheus summaries with 0.5/0.9/0.99 quantile series.
func (r *Registry) Window(name, help string, size int, labels ...string) *Window {
	f := r.family(name, help, kindSummary)
	return f.metric(renderLabels(labels), func() metric { return newWindow(size) }).(*Window)
}

// Producer registers a callback run on every exposition pass to emit
// dynamically labeled series. Producers must not emit a name already
// owned by a directly registered family under a different kind.
func (r *Registry) Producer(fn func(*Emitter)) {
	r.mu.Lock()
	r.producers = append(r.producers, fn)
	r.mu.Unlock()
}

// Counter is a monotonically increasing counter. The zero value is
// ready to use, but obtain counters from Registry.Counter so they are
// exposed.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) sampleInto(dst []sample, name, labels string) []sample {
	return append(dst, sample{name, labels, float64(c.v.Load())})
}

// Gauge is a float64 that can go up and down, stored as atomic bits.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (CAS loop; contended adders all make progress).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) sampleInto(dst []sample, name, labels string) []sample {
	return append(dst, sample{name, labels, g.Value()})
}

// Histogram counts observations into fixed ascending buckets (upper
// bounds are inclusive, Prometheus le semantics) plus an implicit +Inf
// bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records v: one atomic add into its bucket plus a CAS loop for
// the running sum.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the total number of observations. The sum over buckets
// is not snapshotted atomically; a read racing Observe can be off by the
// in-flight observation.
func (h *Histogram) Count() uint64 {
	var t uint64
	for i := range h.counts {
		t += h.counts[i].Load()
	}
	return t
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) sampleInto(dst []sample, name, labels string) []sample {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		dst = append(dst, sample{name + "_bucket", withLabel(labels, "le", formatFloat(b)), float64(cum)})
	}
	cum += h.counts[len(h.bounds)].Load()
	dst = append(dst, sample{name + "_bucket", withLabel(labels, "le", "+Inf"), float64(cum)})
	dst = append(dst, sample{name + "_sum", labels, h.Sum()})
	dst = append(dst, sample{name + "_count", labels, float64(cum)})
	return dst
}

// Window keeps the last size observations and exposes them as a
// Prometheus summary (0.5/0.9/0.99 quantiles over the window, plus
// lifetime _sum and _count). Observe takes a mutex; use it for per-query
// paths, not per-sweep ones.
type Window struct {
	mu    sync.Mutex
	buf   []float64
	next  int
	full  bool
	count uint64
	sum   float64
}

func newWindow(size int) *Window {
	if size < 1 {
		size = 1
	}
	return &Window{buf: make([]float64, size)}
}

// Observe records v, evicting the oldest sample once the window is full.
func (w *Window) Observe(v float64) {
	w.mu.Lock()
	w.buf[w.next] = v
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
	w.count++
	w.sum += v
	w.mu.Unlock()
}

// Count returns the lifetime observation count.
func (w *Window) Count() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// Quantile returns the q-quantile (0 < q <= 1) over the current window,
// or NaN when the window is empty.
func (w *Window) Quantile(q float64) float64 {
	vals := w.snapshot()
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	return vals[quantIndex(len(vals), q)]
}

func (w *Window) snapshot() []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.next
	if w.full {
		n = len(w.buf)
	}
	return append([]float64(nil), w.buf[:n]...)
}

func (w *Window) sampleInto(dst []sample, name, labels string) []sample {
	w.mu.Lock()
	n := w.next
	if w.full {
		n = len(w.buf)
	}
	vals := append([]float64(nil), w.buf[:n]...)
	count, sum := w.count, w.sum
	w.mu.Unlock()
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		v := math.NaN()
		if len(vals) > 0 {
			v = vals[quantIndex(len(vals), q)]
		}
		dst = append(dst, sample{name, withLabel(labels, "quantile", formatFloat(q)), v})
	}
	dst = append(dst, sample{name + "_sum", labels, sum})
	dst = append(dst, sample{name + "_count", labels, float64(count)})
	return dst
}

func quantIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// ExpBuckets returns n ascending upper bounds start, start·factor,
// start·factor², ... — the usual shape for latencies and frontier sizes.
func ExpBuckets(start, factor float64, n int) []float64 {
	bs := make([]float64, n)
	v := start
	for i := range bs {
		bs[i] = v
		v *= factor
	}
	return bs
}

// LinearBuckets returns n ascending upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	bs := make([]float64, n)
	for i := range bs {
		bs[i] = start + float64(i)*width
	}
	return bs
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// renderLabels turns ("k","v",...) pairs into a canonical {k="v",...}
// string, sorted by key so the same logical label set always maps to the
// same metric.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", kv))
	}
	type pair struct{ k, v string }
	ps := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ps = append(ps, pair{kv[i], kv[i+1]})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, p := range ps {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteString(`="`)
		sb.WriteString(labelEscaper.Replace(p.v))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// withLabel appends one extra label (le, quantile) to an already
// rendered label set.
func withLabel(labels, k, v string) string {
	extra := k + `="` + labelEscaper.Replace(v) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
