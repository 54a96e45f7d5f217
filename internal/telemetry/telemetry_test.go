package telemetry

import (
	"bytes"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestRegistryHammer drives every metric kind from many goroutines while
// other goroutines scrape — the -race CI step turns any unsynchronized
// access into a failure, and the final totals check that no increment
// was lost.
func TestRegistryHammer(t *testing.T) {
	r := New()
	const (
		workers = 8
		perG    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Registration races registration: every goroutine asks for the
			// same families and must get the same metrics back.
			c := r.Counter("hammer_ops_total", "ops")
			g := r.Gauge("hammer_level", "level", "shard", "0")
			h := r.Histogram("hammer_size", "sizes", ExpBuckets(1, 2, 8))
			win := r.Window("hammer_wait", "waits", 256)
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 300))
				win.Observe(float64(i))
			}
		}(w)
	}
	// Concurrent scrapes and a racing producer registration.
	r.Producer(func(e *Emitter) {
		e.Gauge("hammer_dynamic", "dyn", 1, "tenant", "a")
	})
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	const total = workers * perG
	if got := r.Counter("hammer_ops_total", "ops").Value(); got != total {
		t.Fatalf("counter lost increments: %d, want %d", got, total)
	}
	if got := r.Gauge("hammer_level", "level", "shard", "0").Value(); got != total {
		t.Fatalf("gauge lost adds: %g, want %d", got, total)
	}
	h := r.Histogram("hammer_size", "sizes", nil)
	if got := h.Count(); got != total {
		t.Fatalf("histogram lost observations: %d, want %d", got, total)
	}
	if win := r.Window("hammer_wait", "waits", 256); win.Count() != total {
		t.Fatalf("window lost observations: %d, want %d", win.Count(), total)
	}
}

// TestWritePrometheusGolden pins the exposition encoding: family
// ordering, label rendering, histogram cumulative buckets, summary
// quantiles, and producer merging are all load-bearing for scrapers.
func TestWritePrometheusGolden(t *testing.T) {
	r := New()
	r.Counter("ds_queries_total", "Queries served.", "tenant", "local").Add(7)
	r.Gauge("ds_store_bytes", "Store footprint.").Set(4096)
	h := r.Histogram("ds_latency_seconds", "Query latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	w := r.Window("ds_wait_seconds", "Queue wait.", 8)
	for i := 1; i <= 4; i++ {
		w.Observe(float64(i))
	}
	r.Producer(func(e *Emitter) {
		e.Gauge("ds_coverage", "Segment coverage.", 0.25, "tenant", "local")
		e.Counter("ds_queries_total", "Queries served.", 2, "tenant", "beta")
	})

	const want = `# HELP ds_coverage Segment coverage.
# TYPE ds_coverage gauge
ds_coverage{tenant="local"} 0.25
# HELP ds_latency_seconds Query latency.
# TYPE ds_latency_seconds histogram
ds_latency_seconds_bucket{le="0.01"} 1
ds_latency_seconds_bucket{le="0.1"} 2
ds_latency_seconds_bucket{le="1"} 3
ds_latency_seconds_bucket{le="+Inf"} 4
ds_latency_seconds_sum 5.555
ds_latency_seconds_count 4
# HELP ds_queries_total Queries served.
# TYPE ds_queries_total counter
ds_queries_total{tenant="local"} 7
ds_queries_total{tenant="beta"} 2
# HELP ds_store_bytes Store footprint.
# TYPE ds_store_bytes gauge
ds_store_bytes 4096
# HELP ds_wait_seconds Queue wait.
# TYPE ds_wait_seconds summary
ds_wait_seconds{quantile="0.5"} 2
ds_wait_seconds{quantile="0.9"} 4
ds_wait_seconds{quantile="0.99"} 4
ds_wait_seconds_sum 10
ds_wait_seconds_count 4
`
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Same bytes through the HTTP handler, with the versioned content type.
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q lacks exposition version", ct)
	}
	if rec.Body.String() != want {
		t.Fatal("handler body differs from WritePrometheus output")
	}
}

func TestLabelEscapingAndDeterminism(t *testing.T) {
	r := New()
	r.Counter("esc_total", "esc", "path", "a\\b\"c\nd").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="a\\b\"c\nd"} 1` + "\n"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped label missing:\n%s", buf.String())
	}
	// Labels given in any key order address the same metric.
	r2 := New()
	r2.Counter("m", "m", "a", "1", "b", "2").Inc()
	r2.Counter("m", "m", "b", "2", "a", "1").Inc()
	if got := r2.Counter("m", "m", "a", "1", "b", "2").Value(); got != 2 {
		t.Fatalf("label order split the metric: %d", got)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	for _, v := range []float64{0.5, 1, 1.0000001, 10, 11} {
		h.Observe(v)
	}
	// le="1" holds {0.5, 1}; le="10" adds {1.0000001, 10}; +Inf adds {11}.
	var dst []sample
	dst = h.sampleInto(dst, "h", "")
	if dst[0].value != 2 || dst[1].value != 4 || dst[2].value != 5 {
		t.Fatalf("cumulative buckets wrong: %+v", dst[:3])
	}
	if dst[3].name != "h_sum" || math.Abs(dst[3].value-23.5000001) > 1e-9 {
		t.Fatalf("sum sample wrong: %+v", dst[3])
	}
}

func TestWindowQuantiles(t *testing.T) {
	w := newWindow(4)
	if !math.IsNaN(w.Quantile(0.5)) {
		t.Fatal("empty window should yield NaN")
	}
	for i := 1; i <= 6; i++ { // 5 and 6 evict 1 and 2
		w.Observe(float64(i))
	}
	if q := w.Quantile(0.5); q != 4 {
		t.Fatalf("p50 over {3,4,5,6} = %g, want 4", q)
	}
	if q := w.Quantile(1); q != 6 {
		t.Fatalf("max = %g, want 6", q)
	}
	if w.Count() != 6 {
		t.Fatalf("lifetime count %d, want 6", w.Count())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("dual", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("dual", "second")
}
