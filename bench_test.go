package diffusearch_test

// Benchmark harness: one benchmark per table/figure of the paper plus
// micro-benchmarks for the hot paths and ablation benches for the design
// choices described in PAPER.md and ROADMAP.md.
//
// The per-figure benchmarks run one full experiment iteration (placement →
// personalization → diffusion-scored walks) on a scaled environment per
// b.N step; cmd/experiments regenerates the figures at full paper scale.

import (
	"sync"
	"testing"

	"diffusearch"
	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/embed"
	"diffusearch/internal/expt"
	"diffusearch/internal/gengraph"
	"diffusearch/internal/graph"
	"diffusearch/internal/ppr"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/vecmath"
)

var (
	benchOnce sync.Once
	benchEnv  *expt.Environment
	benchErr  error
)

// benchEnvironment caches a quarter-scale environment (~1,000 nodes,
// ~3,700-word vocabulary) shared by every benchmark.
func benchEnvironment(b *testing.B) *expt.Environment {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = diffusearch.NewScaledEnvironment(42, 0.25)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// --- Fig. 3: accuracy vs distance, one benchmark per subplot -------------

func benchmarkFig3(b *testing.B, m int) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := expt.AccuracyByDistance(env, expt.AccuracyConfig{
			M: m, Alphas: []float64{0.1, 0.5, 0.9}, MaxDistance: 8, TTL: 50,
			Iterations: 1, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_M10(b *testing.B)   { benchmarkFig3(b, 10) }
func BenchmarkFig3_M100(b *testing.B)  { benchmarkFig3(b, 100) }
func BenchmarkFig3_M1000(b *testing.B) { benchmarkFig3(b, 1000) }

// BenchmarkFig3_M3000 is the largest M the scaled pool supports, standing
// in for the paper's M=10000 subplot (cmd/experiments runs the real size).
func BenchmarkFig3_M3000(b *testing.B) { benchmarkFig3(b, 3000) }

// --- Table I: hop counts --------------------------------------------------

func benchmarkTableI(b *testing.B, m int) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := expt.HopCount(env, expt.HopCountConfig{
			Ms: []int{m}, Alpha: 0.5, Iterations: 1, QueriesPerIter: 10, TTL: 50,
			Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI_M10(b *testing.B)   { benchmarkTableI(b, 10) }
func BenchmarkTableI_M100(b *testing.B)  { benchmarkTableI(b, 100) }
func BenchmarkTableI_M1000(b *testing.B) { benchmarkTableI(b, 1000) }
func BenchmarkTableI_M3000(b *testing.B) { benchmarkTableI(b, 3000) }

// --- Ablation benches (design choices, see PAPER.md/ROADMAP.md) -----------

func BenchmarkAblationParallelWalks(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := expt.ComparePolicies(env, expt.CompareConfig{
			M: 100, Alpha: 0.5, TTL: 50, Iterations: 1, QueriesPerIter: 5, Seed: uint64(i),
			Variants: []expt.Variant{
				{Name: "walks-1", Policy: core.GreedyPolicy{Fanout: 1}},
				{Name: "walks-2", Policy: core.GreedyPolicy{Fanout: 2}},
				{Name: "walks-4", Policy: core.GreedyPolicy{Fanout: 4}},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselines(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := expt.ComparePolicies(env, expt.CompareConfig{
			M: 100, Alpha: 0.5, TTL: 50, Iterations: 1, QueriesPerIter: 2, Seed: uint64(i),
			Variants: expt.BaselineVariants(2),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRecallAtK(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := expt.RecallAtK(env, expt.RecallConfig{
			M: 200, Alpha: 0.5, Ks: []int{1, 5, 10}, TTL: 50, Iterations: 1, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks: the hot paths --------------------------------------

func BenchmarkDot300(b *testing.B) {
	r := randx.New(1)
	x := vecmath.RandomUnit(r, 300)
	y := vecmath.RandomUnit(r, 300)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += vecmath.Dot(x, y)
	}
	_ = sink
}

// BenchmarkMineBenchmark mines the paper's workload (1,000 pairs at cosine
// ≥ 0.6) from the paper-scale vocabulary (15k words, 300-d): the blocked,
// parallel nearest-neighbour passes that dominate environment set-up.
func BenchmarkMineBenchmark(b *testing.B) {
	v, err := diffusearch.NewVocabulary(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diffusearch.MineWorkload(v, 1000, embed.DefaultGoldThreshold, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiffusionSyncStep(b *testing.B) {
	// One synchronous PPR sweep of a 64-d signal over the ~1,000-node graph.
	env := benchEnvironment(b)
	tr := graph.NewTransition(env.Graph, graph.ColumnStochastic)
	r := randx.New(2)
	e0 := vecmath.NewMatrix(env.Graph.NumNodes(), 64)
	for u := 0; u < env.Graph.NumNodes(); u++ {
		e0.SetRow(u, vecmath.RandomGaussian(r, 64, 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := (ppr.PPRFilter{Alpha: 0.5, Tol: 0, MaxIter: 1}).Apply(tr, e0); err == nil {
			b.Fatal("one iteration must not converge at default tol")
		}
	}
}

// --- BenchmarkDiffuse*: the diffusion engines and their fused kernels ------
//
// One full diffusion to convergence per b.N step over the shared
// quarter-scale graph (~1,000 nodes), 16-d signal. The Parallel engine's
// allocation count at paper scale is held to a bar by
// TestParallelAllocsWithinBars.

// diffuseInput builds the shared diffusion benchmark input.
func diffuseInput(b *testing.B, dim int) (*graph.Transition, *vecmath.Matrix) {
	b.Helper()
	env := benchEnvironment(b)
	tr := graph.NewTransition(env.Graph, graph.ColumnStochastic)
	r := randx.New(3)
	e0 := vecmath.NewMatrix(env.Graph.NumNodes(), dim)
	for u := 0; u < env.Graph.NumNodes(); u++ {
		e0.SetRow(u, vecmath.RandomGaussian(r, dim, 1))
	}
	return tr, e0
}

func BenchmarkDiffuseAsynchronous(b *testing.B) {
	tr, e0 := diffuseInput(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := diffuse.Asynchronous(tr, e0, diffuse.Params{Alpha: 0.5, Tol: 1e-6},
			randx.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiffuseParallel(b *testing.B) {
	tr, e0 := diffuseInput(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := diffuse.Parallel(tr, e0, diffuse.Params{Alpha: 0.5, Tol: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiffuseParallelSingleWorker isolates the frontier + fused-kernel
// gain from multi-core parallelism.
func BenchmarkDiffuseParallelSingleWorker(b *testing.B) {
	tr, e0 := diffuseInput(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := diffuse.Parallel(tr, e0, diffuse.Params{Alpha: 0.5, Tol: 1e-6, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiffuseApplyRow measures the fused CSR edge-weight kernel alone:
// one accumulate pass over every node's row of a 64-d signal.
func BenchmarkDiffuseApplyRow(b *testing.B) {
	tr, e0 := diffuseInput(b, 64)
	n := tr.Graph().NumNodes()
	dst := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u := 0; u < n; u++ {
			tr.ApplyRow(dst, u, 0.5, e0)
		}
	}
}

// BenchmarkDiffuseScalarApply measures the scalar CSR kernel behind
// FastNodeScores (one Transition.Apply over the whole graph).
func BenchmarkDiffuseScalarApply(b *testing.B) {
	tr, _ := diffuseInput(b, 1)
	n := tr.Graph().NumNodes()
	src := make([]float64, n)
	for i := range src {
		src[i] = float64(i%13) - 6
	}
	dst := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Apply(dst, src)
	}
}

func BenchmarkFastNodeScores(b *testing.B) {
	env := benchEnvironment(b)
	net := core.NewNetwork(env.Graph, env.Bench.Vocabulary())
	r := randx.New(4)
	pair := env.Bench.SamplePair(r)
	docs := append([]retrieval.DocID{pair.Gold}, env.Bench.SamplePool(r, 999)...)
	if err := net.PlaceDocuments(docs, core.UniformHosts(r, len(docs), env.Graph.NumNodes())); err != nil {
		b.Fatal(err)
	}
	if err := net.ComputePersonalization(); err != nil {
		b.Fatal(err)
	}
	query := env.Bench.Vocabulary().Vector(pair.Query)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := net.ScoreBatch([][]float64{query}, core.DiffusionRequest{Engine: diffuse.EngineSync, Alpha: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkScoreBatch measures the unified request API's multi-column
// scoring: one ScoreBatch call over batchSize distinct queries per b.N
// step on the default (Parallel) engine. Compare ns/op ÷ batchSize against
// BenchmarkFastNodeScores to see the amortization; the paper-scale
// allocation bars are in TestParallelAllocsWithinBars, and the
// bulk_diffuse workload of bench/ times the B=256 shape end to end.
func benchmarkScoreBatch(b *testing.B, batchSize int) {
	env := benchEnvironment(b)
	net := core.NewNetwork(env.Graph, env.Bench.Vocabulary())
	r := randx.New(6)
	pair := env.Bench.SamplePair(r)
	docs := append([]retrieval.DocID{pair.Gold}, env.Bench.SamplePool(r, 999)...)
	if err := net.PlaceDocuments(docs, core.UniformHosts(r, len(docs), env.Graph.NumNodes())); err != nil {
		b.Fatal(err)
	}
	if err := net.ComputePersonalization(); err != nil {
		b.Fatal(err)
	}
	queries := make([][]float64, batchSize)
	for j := range queries {
		queries[j] = env.Bench.Vocabulary().Vector(env.Bench.SamplePair(r).Query)
	}
	req := core.DiffusionRequest{Alpha: 0.5, Seed: 6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := net.ScoreBatch(queries, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScoreBatch1(b *testing.B)  { benchmarkScoreBatch(b, 1) }
func BenchmarkScoreBatch8(b *testing.B)  { benchmarkScoreBatch(b, 8) }
func BenchmarkScoreBatch64(b *testing.B) { benchmarkScoreBatch(b, 64) }

// BenchmarkScoreBatch256 drives one wide batch through the sweep driver:
// its columns retire on different sweeps, so the active block is repacked
// mid-call. Under -benchtime 1x this doubles as the CI smoke of retirement
// at a width the unit tests do not reach.
func BenchmarkScoreBatch256(b *testing.B) { benchmarkScoreBatch(b, 256) }

// benchmarkRunQuery times greedy TTL-50 walks from rotating origins on the
// quarter-scale environment (gold plus 99 pool documents). With embedding
// set, candidates are scored from Network.Run's diffused embeddings, the
// path the bulk_diffuse workload of bench/ walks; otherwise from one
// precomputed ScoreBatch column.
func benchmarkRunQuery(b *testing.B, embedding bool) {
	env := benchEnvironment(b)
	net := core.NewNetwork(env.Graph, env.Bench.Vocabulary())
	r := randx.New(5)
	pair := env.Bench.SamplePair(r)
	docs := append([]retrieval.DocID{pair.Gold}, env.Bench.SamplePool(r, 99)...)
	if err := net.PlaceDocuments(docs, core.UniformHosts(r, len(docs), env.Graph.NumNodes())); err != nil {
		b.Fatal(err)
	}
	if err := net.ComputePersonalization(); err != nil {
		b.Fatal(err)
	}
	query := env.Bench.Vocabulary().Vector(pair.Query)
	cfg := core.QueryConfig{TTL: 50}
	if embedding {
		if _, err := net.Run(core.DiffusionRequest{Alpha: 0.5}); err != nil {
			b.Fatal(err)
		}
	} else {
		batch, _, err := net.ScoreBatch([][]float64{query}, core.DiffusionRequest{Engine: diffuse.EngineSync, Alpha: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		cfg.Scores = batch[0]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		origin := i % env.Graph.NumNodes()
		cfg.Seed = uint64(i)
		if _, err := net.RunQuery(origin, query, pair.Gold, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunQueryGreedyTTL50(b *testing.B)    { benchmarkRunQuery(b, false) }
func BenchmarkRunQueryEmbeddingTTL50(b *testing.B) { benchmarkRunQuery(b, true) }

// BenchmarkFanout runs one bloom-routed fan-out sweep iteration on the
// quarter-scale environment (single filter size, small query set): gossip
// to quiescence, then routed vs unrouted walks on identical queries. The
// CI bench-smoke step runs it once per push so the protocol harness and
// the routing gate stay exercised end to end; the paper-scale bars on its
// message and recall ratios are in internal/expt's
// TestFanoutRoutedBarsAtPaperScale.
func BenchmarkFanout(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := expt.FanoutSweep(env, expt.FanoutConfig{
			M: 200, Queries: 16, BitsGrid: []int{1024}, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 1 || rows[0].RoutedMsgsPerQ <= 0 {
			b.Fatalf("fanout sweep produced no routed traffic: %+v", rows)
		}
	}
}

func BenchmarkCentralizedSearch(b *testing.B) {
	env := benchEnvironment(b)
	vocab := env.Bench.Vocabulary()
	docs := make([]retrieval.DocID, 1000)
	copy(docs, env.Bench.Pool[:1000])
	engine := retrieval.NewEngine(vocab, docs)
	query := vocab.Vector(env.Bench.Pairs[0].Query)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Search(query, 10, retrieval.DotProduct)
	}
}

func BenchmarkSocialGraphGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := gengraph.SocialCircles(gengraph.SocialCirclesParams{
			Nodes: 1000, TargetAvgDegree: 20, MeanCircleSize: 40, SizeSigma: 0.45,
			IntraFraction: 0.94, MaxIntraProb: 0.72, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = g.NumEdges()
	}
}
