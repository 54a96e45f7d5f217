package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"diffusearch/bench/kit"
	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/embed"
	"diffusearch/internal/expt"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/serve"
	"diffusearch/internal/stats"
)

// paperNet is the in-process system under test: the paper-scale
// environment with documents placed on a core.Network.
type paperNet struct {
	c     *runCtx
	env   *expt.Environment
	vocab *embed.Vocabulary
	net   *core.Network
	req   core.DiffusionRequest
	t     *tracer // nil when untraced

	docs, golds int
}

// newPaperNet generates the environment: the graph, the vocabulary and the
// mined query/gold pairs (4,039 nodes and 15,000 300-d words at full
// scale). Like the paper's one social graph it is the same for every seed
// (paperEnvSeed); the run's seed drives what is placed where, the queries,
// the walk origins and the arrivals.
func newPaperNet(c *runCtx) (*paperNet, error) {
	p := &paperNet{c: c, docs: paperDocs, golds: paperGolds}
	params := expt.PaperParams(paperEnvSeed)
	if c.quick {
		params = expt.ScaledParams(paperEnvSeed, 0.05)
		p.docs, p.golds = 60, 10
	}
	env, err := expt.NewEnvironment(params)
	if err != nil {
		return nil, err
	}
	p.env, p.vocab = env, env.Bench.Vocabulary()
	p.net = core.NewNetwork(env.Graph, p.vocab)
	p.req = core.DiffusionRequest{Engine: diffuse.EngineParallel, Alpha: alpha}
	if c.traced() {
		p.t = &tracer{rec: c.rec}
		p.net.SetScorer(&tracedScorer{inner: p.net.ScoringBackend(), t: p.t})
	}
	return p, nil
}

// backend is what scores batches: the network itself, or the traced
// wrapper around it.
func (p *paperNet) backend() serve.Backend {
	if p.t != nil {
		return &tracedBackend{inner: p.net, t: p.t}
	}
	return p.net
}

// place installs placement number k: the golds of the first p.golds pairs
// plus seeded irrelevant documents, on uniformly drawn hosts, and
// recomputes the personalization vectors.
func (p *paperNet) place(k int) error {
	t0 := time.Now()
	r := randx.DeriveN(p.c.seed, "placement", k)
	docs := make([]retrieval.DocID, 0, p.docs)
	for _, pair := range p.env.Bench.Pairs[:p.golds] {
		docs = append(docs, pair.Gold)
	}
	docs = append(docs, p.env.Bench.SamplePool(r, p.docs-p.golds)...)
	p.net.ClearDocuments()
	if err := p.net.PlaceDocuments(docs, core.UniformHosts(r, len(docs), p.env.Graph.NumNodes())); err != nil {
		return err
	}
	if err := p.net.ComputePersonalization(); err != nil {
		return err
	}
	p.c.rec.Add(kit.Span{Name: "core.personalize"}, t0, time.Now())
	return nil
}

// reference scores the queries on the synchronous engine at a tolerance
// far below the request's: the answer the fast path is checked against.
func (p *paperNet) reference(queries [][]float64) ([][]float64, error) {
	ref, _, err := p.net.ScoreBatch(queries, core.DiffusionRequest{Engine: diffuse.EngineSync, Alpha: alpha, Tol: refTol})
	return ref, err
}

// maxAbsDiff is the check's distance; a length mismatch is infinitely far.
func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	d := 0.0
	for i := range a {
		d = max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// scoreSlack is how far a served score may sit from the reference: ten
// times the tolerance the request ran at.
const scoreSlack = 10 * core.DefaultScoreTol

// serveSystem is one set-up of serve_cold.
type serveSystem struct {
	*paperNet
	sched *serve.Scheduler
	words []int             // the query stream: distinct vocabulary words, never repeated
	ref   map[int][]float64 // request index → reference score vector
}

// setUpServe builds the environment, places the documents and starts the
// scheduler with peerd's defaults. It then times "placement change to
// first answer" a few times (a fresh placement, an empty cache, one cold
// query), warms up, and computes the reference answers.
func setUpServe(c *runCtx) (s *serveSystem, rediffuseMS []float64, err error) {
	p, err := newPaperNet(c)
	if err != nil {
		return nil, nil, err
	}
	s = &serveSystem{paperNet: p, ref: make(map[int][]float64)}
	cfg := serve.Config{Request: p.req, MaxWait: serveMaxWait, MaxBatch: serveMaxBatch, Cache: serveCache}
	if p.t != nil {
		cfg.OnTrace = p.t.onTrace
	}
	if s.sched, err = serve.New(p.backend(), cfg); err != nil {
		return nil, nil, err
	}
	s.words = randx.Derive(c.seed, c.name, "queries").Perm(p.vocab.Len())
	// Warm-up queries come off the end of the stream, which the timed
	// phases never reach.
	warm := func(i int) error {
		_, err := s.sched.Submit(c.ctx, p.vocab.Vector(s.words[len(s.words)-1-i]))
		return err
	}
	for k := serveWarmups; k >= 0; k-- {
		// Nothing is in flight here, so the network may be re-placed under
		// the scheduler. The last round restores placement 0.
		t0 := time.Now()
		if err := p.place(k); err != nil {
			return nil, nil, err
		}
		s.sched.InvalidateCache()
		if err := warm(k); err != nil {
			s.sched.Close()
			return nil, nil, err
		}
		rediffuseMS = append(rediffuseMS, ms(time.Since(t0)))
	}
	// Sample the reference across the first requests of the stream, as many
	// as the open-loop phases alone are sure to issue.
	expected := int(serveLoad.openRate * c.openDur().Seconds())
	step := max(expected/refSamples, 1)
	idx := make([]int, refSamples)
	queries := make([][]float64, refSamples)
	for j := range idx {
		idx[j] = j * step
		queries[j] = s.query(idx[j])
	}
	ref, err := p.reference(queries)
	if err != nil {
		s.sched.Close()
		return nil, nil, err
	}
	for j, i := range idx {
		s.ref[i] = ref[j]
	}
	return s, rediffuseMS, nil
}

func (s *serveSystem) query(i int) []float64 { return s.vocab.Vector(s.words[i%len(s.words)]) }

// runServeCold is the serve_cold workload.
func runServeCold(c *runCtx) (*measurement, error) {
	m := newMeasurement()
	var (
		s         *serveSystem
		setups    []float64
		rediffuse []float64
	)
	for rep := 0; rep < c.reps(paperSetupReps); rep++ {
		if s != nil {
			s.sched.Close()
		}
		t0 := time.Now()
		var err error
		var samples []float64
		if s, samples, err = setUpServe(c); err != nil {
			return nil, err
		}
		rediffuse = append(rediffuse, samples...)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.sched.Close()
	m.e2e["setup_s"], m.samples["setup_s"] = stats.Median(setups), len(setups)
	m.e2e["rediffuse_ms"], m.samples["rediffuse_ms"] = stats.Median(rediffuse), len(rediffuse)

	nodes := s.env.Graph.NumNodes()
	submit := func(i int) bool {
		ctx, cancel := context.WithTimeout(c.ctx, 10*time.Second)
		defer cancel()
		scores, err := s.sched.Submit(ctx, s.query(i))
		if err != nil || len(scores) != nodes {
			m.notef("request %d: %d scores, error %v", i, len(scores), err)
			return false
		}
		if ref, ok := s.ref[i]; ok {
			if d := maxAbsDiff(scores, ref); d > scoreSlack {
				m.problemf("request %d: scores differ from the reference by %g > %g", i, d, scoreSlack)
				return false
			}
			m.checked.Add(1)
		}
		return true
	}
	do := func(i int, due time.Time) bool {
		if s.t == nil {
			return submit(i)
		}
		return s.t.submit(int64(i+1), due, s.query(i), func() bool { return submit(i) })
	}

	if s.t != nil {
		s.t.timed.Store(true)
	}
	before, cpu0 := s.sched.Stats(), cpuSelf()
	// Diffusion edge messages per answered query at the open-loop rate; the
	// closed-loop phases coalesce wider and would blur it.
	var entered serve.Stats
	var openMsgs, opened uint64
	lr := runLoad(c, serveLoad, do,
		func(bool) { entered = s.sched.Stats() },
		func(open bool) {
			if left := s.sched.Stats(); open {
				openMsgs += left.MessagesTotal - entered.MessagesTotal
				opened += left.Completed + left.CacheHits - entered.Completed - entered.CacheHits
			}
		})
	after, cpu1 := s.sched.Stats(), cpuSelf()
	loadMetrics(m, serveLoad, lr)
	if got := int(m.checked.Load()); got < refSamples && !c.quick {
		m.problemf("only %d of %d reference answers were compared", got, refSamples)
	}
	m.e2e["msgs_per_query"] = ratio(float64(openMsgs), float64(opened))
	m.samples["msgs_per_query"] = int(opened)
	done := float64(after.Completed + after.CacheHits - before.Completed - before.CacheHits)

	if s.t != nil {
		s.t.timed.Store(false)
		f := foldSpans(c.rec.Spans(), c.rec.Offset(lr.start), c.rec.Offset(lr.end))
		diffusionLayers(m.layer, f, lr.end.Sub(lr.start))
		s.t.mu.Lock()
		serveLayers(m.layer, s.t.traces, before, after, f)
		s.t.mu.Unlock()
		m.layer["core.personalize_ms"] = 0 // no placement changes while serving
		m.layer["proc.cpu_ms_per_query"] = ratio(ms(cpu1-cpu0), done)
		m.layer["proc.rss_peak_mb"] = rssPeakSelfMB()
	}
	return m, nil
}

// runBulkDiffuse is the bulk_diffuse workload: offline cycles of re-place,
// re-diffuse (matrix form), one wide ScoreBatch, and a set of walks over
// the diffused embeddings.
func runBulkDiffuse(c *runCtx) (*measurement, error) {
	m := newMeasurement()
	var (
		p      *paperNet
		batch  [][]float64
		refIdx []int
		ref    [][]float64
		setups []float64
	)
	for rep := 0; rep < c.reps(paperSetupReps); rep++ {
		t0 := time.Now()
		var err error
		if p, err = newPaperNet(c); err != nil {
			return nil, err
		}
		if err := p.place(0); err != nil {
			return nil, err
		}
		if _, err := p.net.Run(p.req); err != nil {
			return nil, err
		}
		words := randx.Derive(c.seed, c.name, "queries").Perm(p.vocab.Len())[:bulkBatch]
		batch = make([][]float64, bulkBatch)
		for j, w := range words {
			batch[j] = p.vocab.Vector(w)
		}
		refIdx = refIdx[:0]
		sample := make([][]float64, refSamples)
		for j := range sample {
			refIdx = append(refIdx, j*bulkBatch/refSamples)
			sample[j] = batch[refIdx[j]]
		}
		if ref, err = p.reference(sample); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m.e2e["setup_s"], m.samples["setup_s"] = stats.Median(setups), len(setups)

	var (
		backend            = p.backend()
		nodes              = p.env.Graph.NumNodes()
		rediffuse, scoreS  []float64
		walkMS             []float64
		msgs, hops, toGold int
		found              int
		walkWall           time.Duration
	)
	start, cpu0 := time.Now(), cpuSelf()
	for k := 0; time.Since(start).Seconds() < c.seconds && c.ctx.Err() == nil; k++ {
		t0 := time.Now()
		if err := p.place(k); err != nil {
			return nil, err
		}
		st, err := p.net.Run(p.req)
		rediffuse = append(rediffuse, ms(time.Since(t0)))
		m.attempted++
		if err != nil || !st.Converged {
			m.failed++
			m.notef("cycle %d: diffusion did not converge: %v", k, err)
			continue
		}

		t0 = time.Now()
		scores, _, err := backend.ScoreBatch(batch, p.req)
		scoreS = append(scoreS, time.Since(t0).Seconds())
		m.attempted++
		if err != nil || len(scores) != bulkBatch {
			m.failed++
			m.notef("cycle %d: ScoreBatch returned %d columns: %v", k, len(scores), err)
		} else if k == 0 { // placement 0 is the one the reference was computed on
			for j, i := range refIdx {
				if d := maxAbsDiff(scores[i], ref[j]); d > scoreSlack {
					m.failed++
					m.problemf("column %d: scores differ from the reference by %g > %g", i, d, scoreSlack)
					break
				}
				m.checked.Add(1)
			}
		}

		r := randx.DeriveN(c.seed, "walks", k)
		for w := 0; w < bulkWalks; w++ {
			pair := p.env.Bench.Pairs[r.IntN(p.golds)]
			origin := r.IntN(nodes)
			t0 = time.Now()
			out, err := p.net.RunQuery(origin, p.vocab.Vector(pair.Query), pair.Gold, core.QueryConfig{TTL: bulkTTL})
			t1 := time.Now()
			c.rec.Add(kit.Span{Name: "core.walk"}, t0, t1)
			m.attempted++
			// A walk that says it found the gold must be carrying it.
			if err != nil || out.Found != (len(out.Results) > 0 && out.Results[0].Doc == pair.Gold) {
				m.failed++
				m.problemf("walk %d of cycle %d: found=%t results=%v error %v", w, k, out.Found, out.Results, err)
				continue
			}
			walkWall += t1.Sub(t0)
			walkMS = append(walkMS, ms(t1.Sub(t0)))
			msgs += out.Messages
			hops += out.HopsTraveled
			if out.Found {
				found++
				toGold += out.HopsToGold
			}
		}
	}
	end, cpu1 := time.Now(), cpuSelf()
	if len(walkMS) == 0 || len(scoreS) == 0 {
		return nil, fmt.Errorf("no cycle completed in %g s", c.seconds)
	}
	if got := int(m.checked.Load()); got < refSamples {
		m.problemf("only %d of %d reference answers were compared", got, refSamples)
	}
	walks := float64(len(walkMS))
	m.e2e["rediffuse_ms"], m.samples["rediffuse_ms"] = stats.Median(rediffuse), len(rediffuse)
	m.e2e["latency_p50_ms"] = kit.QuietSlice(walkMS, loadRounds, 50)
	m.e2e["latency_p90_ms"] = kit.QuietSlice(walkMS, loadRounds, 90)
	m.samples["latency_p50_ms"], m.samples["latency_p90_ms"] = len(walkMS), len(walkMS)
	m.e2e["throughput_qps"], m.samples["throughput_qps"] = bulkBatch/stats.Median(scoreS), len(scoreS)
	m.e2e["msgs_per_query"], m.samples["msgs_per_query"] = float64(msgs)/walks, len(walkMS)

	tail := kit.TailOf(walkMS)
	m.layer["driver.sent"] = float64(m.attempted)
	m.layer["driver.ok"] = float64(m.attempted - m.failed)
	m.layer["driver.failed"] = float64(m.failed)
	m.layer["driver.latency_tail_ms"], m.layer["driver.latency_tail_pct"] = tail.Value, tail.Pct
	m.layer["driver.goodput_frac"] = 1 // offline work has no latency limit
	m.layer["driver.hit_rate"] = float64(found) / walks
	m.layer["core.walk_us_per_query"] = float64(walkWall) / float64(time.Microsecond) / walks
	m.layer["core.walks_per_s"] = walks / walkWall.Seconds()
	m.layer["core.hops_per_query"] = float64(hops) / walks
	m.layer["core.hops_to_gold_mean"] = ratio(float64(toGold), float64(found))
	if c.traced() {
		f := foldSpans(c.rec.Spans(), c.rec.Offset(start), c.rec.Offset(end))
		diffusionLayers(m.layer, f, end.Sub(start))
		pers := get(f, "core.personalize")
		m.layer["core.personalize_ms"] = ratio(ms(pers.wall), float64(pers.calls))
		m.layer["proc.cpu_ms_per_query"] = ratio(ms(cpu1-cpu0), walks)
		m.layer["proc.rss_peak_mb"] = rssPeakSelfMB()
	}
	return m, nil
}
