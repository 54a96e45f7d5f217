package main

import (
	"sync"
	"sync/atomic"
	"time"

	"diffusearch/bench/kit"
	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/graph"
	"diffusearch/internal/peernet"
	"diffusearch/internal/serve"
	"diffusearch/internal/stats"
	"diffusearch/internal/vecmath"
)

// The wrappers in this file are the traced run's instruments. Each sits on
// a seam the repo already exposes (core.Scorer, serve.Backend,
// serve.Config.OnTrace, peernet.Transport) and records one span per call,
// with the work counted at the same place. No span is recorded inside the
// programs under test.

// tracer is shared by the in-process wrappers of one run.
type tracer struct {
	rec *kit.Recorder

	// The scheduler's collector dispatches one batch at a time and the bulk
	// loop is one goroutine, so "the ScoreBatch in progress" is one value.
	batchSpan atomic.Int64 // span ID of the running core.scorebatch, parent of diffuse spans
	batchNo   atomic.Int64

	// riders maps the first element of a submitted query vector to the
	// request that submitted it: the scheduler hands the backend the very
	// slices Submit received, which ties a batch to its requests.
	riders sync.Map // *float64 → rider

	mu     sync.Mutex
	traces []serve.Trace // OnTrace records of the timed phases
	timed  atomic.Bool   // OnTrace keeps records only while set
}

type rider struct {
	req        int64
	submitSpan int64
	submitted  time.Time
}

// tracedScorer wraps the network's diffusion backend:
// net.SetScorer(&tracedScorer{net.ScoringBackend(), t}).
type tracedScorer struct {
	inner core.Scorer
	t     *tracer
}

func (s *tracedScorer) Diffuse(e0 *vecmath.Matrix, engine diffuse.Engine, p diffuse.Params, seed uint64) (*vecmath.Matrix, diffuse.Stats, error) {
	t0 := time.Now()
	out, st, err := s.inner.Diffuse(e0, engine, p, seed)
	s.t.rec.Add(kit.Span{
		Name: "diffuse.matrix", Parent: s.t.batchSpan.Load(),
		Counts: map[string]int64{"cols": int64(e0.Cols()), "sweeps": int64(st.Sweeps), "edge_msgs": st.Messages},
	}, t0, time.Now())
	return out, st, err
}

func (s *tracedScorer) DiffuseSignal(sig *diffuse.Signal, engine diffuse.Engine, p diffuse.Params, seed uint64) (*diffuse.Signal, diffuse.Stats, error) {
	t0 := time.Now()
	out, st, err := s.inner.DiffuseSignal(sig, engine, p, seed)
	colSweeps := int64(0)
	for _, cs := range st.ColumnSweeps {
		colSweeps += int64(cs)
	}
	s.t.rec.Add(kit.Span{
		Name: "diffuse.signal", Parent: s.t.batchSpan.Load(), Batch: s.t.batchNo.Load(),
		Counts: map[string]int64{
			"cols": int64(sig.Columns()), "sweeps": int64(st.Sweeps),
			"col_sweeps": colSweeps, "edge_msgs": st.Messages,
		},
	}, t0, time.Now())
	return out, st, err
}

// tracedBackend wraps the scheduler's backend (or the bulk loop's direct
// ScoreBatch calls): one core.scorebatch span per batch, and for every
// rider the serve.wait and serve.score spans under its serve.submit span.
type tracedBackend struct {
	inner serve.Backend
	t     *tracer
}

func (b *tracedBackend) ScoreBatch(queries [][]float64, req core.DiffusionRequest) ([][]float64, diffuse.Stats, error) {
	id, no := b.t.rec.NextID(), b.t.batchNo.Add(1)
	b.t.batchSpan.Store(id)
	t0 := time.Now()
	out, st, err := b.inner.ScoreBatch(queries, req)
	t1 := time.Now()
	b.t.batchSpan.Store(0)
	b.t.rec.Add(kit.Span{
		ID: id, Name: "core.scorebatch", Batch: no,
		Counts: map[string]int64{"cols": int64(len(queries))},
	}, t0, t1)
	for _, q := range queries {
		v, ok := b.t.riders.LoadAndDelete(&q[0])
		if !ok {
			continue
		}
		r := v.(rider)
		b.t.rec.Add(kit.Span{Name: "serve.wait", Parent: r.submitSpan, Req: r.req, Batch: no}, r.submitted, t0)
		b.t.rec.Add(kit.Span{Name: "serve.score", Parent: r.submitSpan, Req: r.req, Batch: no}, t0, t1)
	}
	return out, st, err
}

// onTrace is the serve.Config.OnTrace sink. It must not block the
// collector, so it only appends.
func (t *tracer) onTrace(tr serve.Trace) {
	if !t.timed.Load() {
		return
	}
	t.mu.Lock()
	t.traces = append(t.traces, tr)
	t.mu.Unlock()
}

// submit runs one scheduler submission under a driver.request span that
// starts when the request was due, with the serve.submit span inside it.
func (t *tracer) submit(req int64, due time.Time, query []float64, do func() bool) bool {
	reqSpan, subSpan := t.rec.NextID(), t.rec.NextID()
	t0 := time.Now()
	t.riders.Store(&query[0], rider{req: req, submitSpan: subSpan, submitted: t0})
	ok := do()
	t1 := time.Now()
	t.riders.Delete(&query[0]) // a cache hit or a refusal never reached the backend
	t.rec.Add(kit.Span{ID: subSpan, Parent: reqSpan, Name: "serve.submit", Req: req}, t0, t1)
	t.rec.Add(kit.Span{ID: reqSpan, Name: "driver.request", Req: req}, due, t1)
	return ok
}

// countingTransport wraps the client peer's transport: time inside Send
// (envelope encode + socket write) and payload bytes per message.
type countingTransport struct {
	peernet.Transport
	rec *kit.Recorder
}

func (c *countingTransport) Send(to graph.NodeID, env peernet.Envelope) error {
	t0 := time.Now()
	err := c.Transport.Send(to, env)
	c.rec.Add(kit.Span{
		Name:   "peernet.client_send",
		Counts: map[string]int64{"bytes": int64(len(env.Data)), "type": int64(env.Type)},
	}, t0, time.Now())
	return err
}

// spanStats folds the spans that started inside [from, to) into per-name
// totals: calls, wall time, self time, and summed counts.
type spanStats struct {
	calls int
	wall  time.Duration
	self  time.Duration
	durs  []float64 // per-call wall, ms
	count map[string]int64
}

func foldSpans(spans []kit.Span, from, to int64) map[string]*spanStats {
	self := kit.SelfTimes(spans)
	out := make(map[string]*spanStats)
	for _, s := range spans {
		if s.Start < from || s.Start >= to {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStats{count: make(map[string]int64)}
			out[s.Name] = st
		}
		st.calls++
		st.wall += s.Dur()
		st.self += self[s.ID]
		st.durs = append(st.durs, float64(s.Dur())/float64(time.Millisecond))
		for k, v := range s.Counts {
			st.count[k] += v
		}
	}
	return out
}

// get returns the stats of one span name, empty when none was recorded.
func get(m map[string]*spanStats, name string) *spanStats {
	if s := m[name]; s != nil {
		return s
	}
	return &spanStats{count: map[string]int64{}}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when the workload gave the denominator nothing.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// diffusionLayers fills the core.* and diffuse.* metrics every traced
// in-process workload derives the same way from its spans.
func diffusionLayers(layer map[string]float64, f map[string]*spanStats, phaseWall time.Duration) {
	batch, signal, matrix := get(f, "core.scorebatch"), get(f, "diffuse.signal"), get(f, "diffuse.matrix")
	cols, edge := float64(signal.count["cols"]), float64(signal.count["edge_msgs"])
	layer["core.scorebatch_ms_per_batch"] = ratio(ms(batch.wall), float64(batch.calls))
	layer["core.self_ms_per_batch"] = ratio(ms(batch.self), float64(batch.calls))
	layer["diffuse.signal_ms_per_col"] = ratio(ms(signal.wall), cols)
	layer["diffuse.sweeps_per_batch"] = ratio(float64(signal.count["sweeps"]), float64(signal.calls))
	layer["diffuse.col_sweeps_mean"] = ratio(float64(signal.count["col_sweeps"]), cols)
	layer["diffuse.edge_msgs_per_col"] = ratio(edge, cols)
	layer["diffuse.ns_per_edge_msg"] = ratio(float64(signal.wall), edge)
	layer["diffuse.busy_frac"] = ratio(float64(signal.wall+matrix.wall), float64(phaseWall))
	layer["diffuse.matrix_ms"] = ratio(ms(matrix.wall), float64(matrix.calls))
	layer["diffuse.matrix_sweeps"] = ratio(float64(matrix.count["sweeps"]), float64(matrix.calls))
	layer["diffuse.matrix_edge_msgs"] = ratio(float64(matrix.count["edge_msgs"]), float64(matrix.calls))
}

// serveLayers fills the serve.* metrics from the OnTrace records and the
// scheduler's counter deltas over the timed phases.
func serveLayers(layer map[string]float64, traces []serve.Trace, before, after serve.Stats, f map[string]*spanStats) {
	var waits, scores []float64
	paths := make(map[serve.Path]int)
	for _, tr := range traces {
		paths[tr.Path]++
		if tr.Path == serve.PathScored || tr.Path == serve.PathDedup {
			waits = append(waits, ms(tr.Wait))
		}
		if tr.Path == serve.PathScored {
			scores = append(scores, ms(tr.Score))
		}
	}
	hits, done := float64(after.CacheHits-before.CacheHits), float64(after.Completed-before.Completed)
	layer["serve.wait_ms_p50"] = stats.Percentile(waits, 50)
	layer["serve.wait_ms_p90"] = stats.Percentile(waits, 90)
	layer["serve.score_ms_p50"] = stats.Percentile(scores, 50)
	layer["serve.batch_mean"] = ratio(float64(after.QueriesScored-before.QueriesScored), float64(after.Batches-before.Batches))
	layer["serve.cache_hit_frac"] = ratio(hits, hits+done)
	layer["serve.dedup_frac"] = ratio(float64(paths[serve.PathDedup]), float64(len(traces)))
	layer["serve.queue_max"] = float64(after.QueueMax)
	layer["serve.rejected"] = float64(after.Rejected - before.Rejected)
	layer["serve.shed"] = float64(after.DeadlineMissed - before.DeadlineMissed)
	submit := get(f, "serve.submit")
	layer["serve.self_us_per_query"] = ratio(float64(submit.self)/float64(time.Microsecond), float64(submit.calls))
}
