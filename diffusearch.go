// Package diffusearch is the public API of the reproduction of
// "A Graph Diffusion Scheme for Decentralized Content Search based on
// Personalized PageRank" (Giatsoglou et al., ICDCS 2022).
//
// The package re-exports the building blocks (topology, embedding corpus,
// PPR diffusion, the decentralized search protocol, and the experiment
// harness) and offers turn-key constructors for the paper's evaluation
// setting. Every diffusion — embedding smoothing and query scoring alike —
// goes through one DiffusionRequest. A typical session:
//
//	env, _ := diffusearch.NewPaperEnvironment(42)
//	net := diffusearch.NewNetwork(env.Graph, env.Bench.Vocabulary())
//	r := diffusearch.NewRand(42)
//	pair := env.Bench.SamplePair(r)
//	docs := append([]diffusearch.DocID{pair.Gold}, env.Bench.SamplePool(r, 99)...)
//	_ = net.PlaceDocuments(docs, diffusearch.UniformHosts(r, len(docs), env.Graph.NumNodes()))
//	_ = net.ComputePersonalization()
//
//	// Decentralized PPR diffusion (§IV-B) on the parallel engine (the
//	// zero-value default); Engine/Tol/Workers/Seed select other drivers.
//	_, _ = net.Run(diffusearch.DiffusionRequest{Alpha: 0.5, Seed: 42})
//	out, _ := net.RunQuery(0, env.Bench.Vocabulary().Vector(pair.Query), pair.Gold,
//		diffusearch.QueryConfig{TTL: 50})
//	fmt.Println(out.Found, out.HopsToGold)
//
//	// Batch query scoring: one multi-column diffusion amortizes the
//	// per-edge work across the whole batch (§IV-B linearity).
//	queries := [][]float64{env.Bench.Vocabulary().Vector(pair.Query)}
//	scores, _, _ := net.ScoreBatch(queries, diffusearch.DiffusionRequest{Alpha: 0.5})
//	out, _ = net.RunQuery(0, queries[0], pair.Gold,
//		diffusearch.QueryConfig{TTL: 50, Scores: scores[0]})
//
//	// Serving under concurrent load: a Scheduler coalesces concurrent
//	// Submit calls into batched diffusions under a latency budget, with
//	// an LRU score cache for repeated queries (see NewScheduler).
//	sched, _ := diffusearch.NewScheduler(net, diffusearch.ServeConfig{
//		Request: diffusearch.DiffusionRequest{Alpha: 0.5},
//		MaxWait: 2 * time.Millisecond,
//	})
//	defer sched.Close()
//	nodeScores, _ := sched.Submit(ctx, queries[0])
//
//	// Priority classes and deadlines: interactive queries jump the
//	// coalesce window (shed with ErrDeadlineMissed when not dispatched
//	// in time), bulk prewarms wait to widen batches (see SubmitOpts).
//	nodeScores, _ = sched.SubmitWith(ctx, queries[0], diffusearch.SubmitOpts{
//		Deadline: time.Now().Add(20 * time.Millisecond),
//	})
//
// See the examples/ directory for runnable programs and cmd/experiments for
// the harness that regenerates every table and figure of the paper.
package diffusearch

import (
	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/embed"
	"diffusearch/internal/expt"
	"diffusearch/internal/gengraph"
	"diffusearch/internal/graph"
	"diffusearch/internal/peernet"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/serve"
	"diffusearch/internal/telemetry"
)

// Re-exported identifier types.
type (
	// NodeID identifies a P2P node.
	NodeID = graph.NodeID
	// DocID identifies a document (its embedding's word id).
	DocID = retrieval.DocID
	// Rand is the deterministic PRNG used across the library.
	Rand = randx.Rand
)

// Re-exported core types. External users interact with these through this
// package; the internal packages carry the implementation.
type (
	// Graph is an immutable undirected P2P topology.
	Graph = graph.Graph
	// Vocabulary is an immutable table of word embeddings.
	Vocabulary = embed.Vocabulary
	// Benchmark is a mined query/gold workload plus an irrelevant pool.
	Benchmark = embed.Benchmark
	// QueryPair couples a query with its gold document.
	QueryPair = embed.QueryPair
	// Network is the decentralized search network (the paper's scheme).
	Network = core.Network
	// Option customizes NewNetwork.
	Option = core.Option
	// QueryConfig controls one query execution.
	QueryConfig = core.QueryConfig
	// QueryOutcome reports one finished query.
	QueryOutcome = core.QueryOutcome
	// Policy decides forwarding targets (§IV-C).
	Policy = core.Policy
	// GreedyPolicy is the paper's embedding-guided walk.
	GreedyPolicy = core.GreedyPolicy
	// RandomPolicy is the blind random-walk baseline.
	RandomPolicy = core.RandomPolicy
	// FloodingPolicy is the Gnutella-style flooding baseline.
	FloodingPolicy = core.FloodingPolicy
	// VisitedMode selects the visited-avoidance mechanism.
	VisitedMode = core.VisitedMode
	// Result is a scored document.
	Result = retrieval.Result
	// Environment bundles a topology with a mined workload.
	Environment = expt.Environment
	// DiffusionEngine selects a diffusion driver (async reference, the
	// residual-driven parallel engine, the synchronous eq. 7 iteration, or
	// the multi-color Gauss–Seidel engine).
	DiffusionEngine = diffuse.Engine
	// DiffusionParams configure one diffusion run.
	DiffusionParams = diffuse.Params
	// DiffusionStats report one diffusion run (updates, messages, sweeps,
	// and per-column sweep counts for batched signal runs).
	DiffusionStats = diffuse.Stats
	// DiffusionRequest is the single dispatch struct behind Network.Run
	// (embedding diffusion) and Network.ScoreBatch (multi-column batch
	// query scoring).
	DiffusionRequest = core.DiffusionRequest
	// DiffusionSignal is an n×B column block of scalar node signals the
	// engines diffuse column-blocked with per-column early termination.
	DiffusionSignal = diffuse.Signal
	// Scheduler is the admission-controlled serving loop: concurrent
	// Submit calls coalesce into batched ScoreBatch diffusions under a
	// latency budget, with bounded-queue backpressure and an LRU score
	// cache. Construct with NewScheduler. SubmitWith adds deadline-aware
	// priority scheduling (see SubmitOpts).
	Scheduler = serve.Scheduler
	// ServeConfig parameterizes a Scheduler (request, MaxWait latency
	// budget, MaxBatch width cap, queue bound, cache size, and the Bulk
	// class's BulkMaxWait widening budget and BulkEvery starvation bound).
	ServeConfig = serve.Config
	// ServeStats is a Scheduler counters snapshot: batch-width histogram,
	// wait quantiles (aggregate and per scheduling class), cache hit rate,
	// aggregated sweeps/query, and deadline-miss/promotion counters.
	ServeStats = serve.Stats
	// SubmitOpts tags one Scheduler.SubmitWith call with a scheduling
	// class (ClassInteractive or ClassBulk) and an optional deadline. The
	// zero value reproduces plain Submit exactly.
	SubmitOpts = serve.SubmitOpts
	// ServeClass is a scheduling class (carried on DiffusionRequest.Class
	// for dispatched batches).
	ServeClass = core.ServeClass
	// WaitQuantiles are per-class coalescing-wait quantiles in ServeStats.
	WaitQuantiles = serve.WaitQuantiles
	// ServeBackend scores query batches for a Scheduler; *Network
	// satisfies it.
	ServeBackend = serve.Backend
	// DiffusionObserver is a read-only per-sweep tap on the column-blocked
	// diffusion kernels (set DiffusionRequest.Observer or
	// DiffusionParams.Observe): it receives one SweepStat per sweep and
	// can never change the result — observed runs are bit-identical to
	// bare ones.
	DiffusionObserver = diffuse.Observer
	// SweepStat is one sweep's convergence snapshot (1-based sweep index,
	// active frontier and column counts, max and L1 residuals, and
	// per-sweep message deltas whose sum equals DiffusionStats.Messages).
	SweepStat = diffuse.SweepStat
	// MetricsRegistry is the dependency-free metrics registry behind the
	// telemetry layer: wait-free counters/gauges/histograms/quantile
	// windows with a deterministic Prometheus text exposition
	// (WritePrometheus, or Handler for an HTTP scrape endpoint).
	// Construct with NewMetricsRegistry.
	MetricsRegistry = telemetry.Registry
	// DiffusionMetrics is the stock DiffusionObserver that turns sweep
	// stats into registry histograms and counters. Construct with
	// NewDiffusionMetrics.
	DiffusionMetrics = telemetry.DiffusionMetrics
	// ServeTrace is one resolved Scheduler submission's trace record:
	// resolution path, scheduling class, wait/score stage durations,
	// batch width, and sweep count. Delivered through ServeConfig.OnTrace
	// on the resolver goroutine (the hook must not block).
	ServeTrace = serve.Trace
	// TracePath names a ServeTrace resolution path (TracePaths lists all
	// of them in display order).
	TracePath = serve.Path
	// PeerFilterConfig sizes the bloom document summary each peer gossips
	// for routed query fan-out (Bits=0 disables routing; see
	// peernet.FilterConfig for the defaults a Bits>0 config fills in).
	PeerFilterConfig = peernet.FilterConfig
	// PeerFilterStats snapshots a peer's routing-gate state (filter fill,
	// cached/stale neighbour summaries, hit/fallback/early-stop counters)
	// — the struct `peerd -admin` serves on /statusz.
	PeerFilterStats = peernet.FilterStats
	// SimNetwork is the deterministic single-threaded replica of the
	// peernet protocol (round-synchronous gossip, event-driven walks, the
	// exact routing gate) for tests and count-based experiments. Construct
	// with NewSimNetwork.
	SimNetwork = peernet.SimNetwork
	// SimNetworkConfig configures a SimNetwork.
	SimNetworkConfig = peernet.SimConfig
	// SimQueryOutcome is one SimNetwork walk's outcome: results, hop
	// sequence, message count, filter hits, and whether the provable
	// early stop fired.
	SimQueryOutcome = peernet.SimQueryOutcome
	// Scorer selects an embedding similarity measure (DotProduct is the
	// paper's choice; CosineSim normalizes it).
	Scorer = retrieval.Scorer
)

// Embedding similarity scorers.
const (
	DotProduct = retrieval.DotProduct
	CosineSim  = retrieval.CosineSim
)

// Diffusion engines (§IV-B). EngineAsynchronous is the deterministic
// sequential reference; EngineParallel is the residual-driven frontier
// engine on a fixed worker pool (the zero-value default of a
// DiffusionRequest); EngineSync is the synchronous eq. 7 iteration,
// bit-compatible with the historical ppr.PPRFilter scoring path;
// EngineParallelGS is the deterministic multi-color Gauss–Seidel engine
// (Gauss–Seidel sweep counts at parallel-engine worker scaling, identical
// results for every worker count).
const (
	EngineAsynchronous = diffuse.EngineAsynchronous
	EngineParallel     = diffuse.EngineParallel
	EngineSync         = diffuse.EngineSync
	EngineParallelGS   = diffuse.EngineParallelGS
)

// Visited-avoidance modes (§IV-C).
const (
	VisitedNodeMemory = core.VisitedNodeMemory
	VisitedInMessage  = core.VisitedInMessage
	VisitedNone       = core.VisitedNone
)

// Scheduling classes for SubmitOpts: Interactive is the zero value
// (latency-sensitive, jumps the coalesce window); Bulk trades latency for
// batch width (prewarms, analytics) under the BulkMaxWait budget.
const (
	ClassInteractive = core.ClassInteractive
	ClassBulk        = core.ClassBulk
)

// ServeTrace resolution paths: how a Scheduler submission was resolved
// (TracePaths lists them in display order).
const (
	TraceCacheHit  = serve.PathCacheHit
	TraceScored    = serve.PathScored
	TraceDedup     = serve.PathDedup
	TraceShed      = serve.PathShed
	TraceRejected  = serve.PathRejected
	TraceCancelled = serve.PathCancelled
	TraceError     = serve.PathError
)

// ErrDeadlineMissed is returned by Scheduler.SubmitWith when a query's
// deadline expires before dispatch: the query is shed, never scored, and
// counted in ServeStats.DeadlineMissed.
var ErrDeadlineMissed = serve.ErrDeadlineMissed

// Re-exported constructors and options.
var (
	// NewNetwork creates a search network over a topology and vocabulary.
	NewNetwork = core.NewNetwork
	// WithScorer selects the comparison function φ.
	WithScorer = core.WithScorer
	// WithSummarization selects the personalization summarization mode.
	WithSummarization = core.WithSummarization
	// WithNormalization selects the transition-matrix normalization.
	WithNormalization = core.WithNormalization
	// UniformHosts draws uniform document hosts (the paper's placement).
	UniformHosts = core.UniformHosts
	// NewRand returns a deterministic PRNG for the given seed.
	NewRand = randx.New
	// ParseEngine maps a command-line name (async|parallel|sync|gs) to an
	// engine.
	ParseEngine = diffuse.ParseEngine
	// RunDiffusion dispatches one diffusion over a transition operator to
	// the selected engine, without going through a Network.
	RunDiffusion = diffuse.Run
	// RunDiffusionSignal dispatches one column-blocked signal diffusion
	// (per-column residual tracking and early termination) to the selected
	// engine, without going through a Network.
	RunDiffusionSignal = diffuse.RunSignal
	// NewDiffusionSignal wraps an n×B matrix as a diffusion signal.
	NewDiffusionSignal = diffuse.NewSignal
	// NewScheduler starts an admission-controlled coalescing scheduler
	// over a scoring backend (typically a *Network).
	NewScheduler = serve.New
	// ParseServeClass maps a command-line name (interactive|bulk) to a
	// scheduling class.
	ParseServeClass = serve.ParseClass
	// NewMetricsRegistry creates an empty MetricsRegistry.
	NewMetricsRegistry = telemetry.New
	// NewDiffusionMetrics registers the diffusion sweep metric families in
	// a registry and returns the observer that feeds them.
	NewDiffusionMetrics = telemetry.NewDiffusionMetrics
	// TracePaths lists every ServeTrace resolution path in display order
	// (pre-register per-path metrics by ranging over it).
	TracePaths = serve.Paths
	// NewSimNetwork builds the deterministic protocol harness.
	NewSimNetwork = peernet.NewSimNetwork
	// MineQueryKeys picks the document keys a routed query carries: the
	// vocabulary words most similar to the query embedding under the
	// given scorer.
	MineQueryKeys = peernet.QueryKeys
)

// NewPaperEnvironment builds the full-scale evaluation setting of §V: a
// Facebook-like 4,039-node social graph and a 1,000-pair workload mined at
// cosine ≥ 0.6 from a synthetic GloVe-like vocabulary.
func NewPaperEnvironment(seed uint64) (*Environment, error) {
	return expt.NewEnvironment(expt.PaperParams(seed))
}

// NewScaledEnvironment builds a reduced evaluation setting (scale in (0,1],
// floors applied) for tests, benchmarks, and quick demos.
func NewScaledEnvironment(seed uint64, scale float64) (*Environment, error) {
	return expt.NewEnvironment(expt.ScaledParams(seed, scale))
}

// NewSocialGraph generates the Facebook-like topology on its own (4,039
// nodes, ≈88k edges, clustering ≈ 0.6).
func NewSocialGraph(seed uint64) *Graph {
	return gengraph.FacebookLike(seed)
}

// NewVocabulary generates the default synthetic GloVe substitute (15k
// words, 300 dimensions, anisotropic clusters).
func NewVocabulary(seed uint64) (*Vocabulary, error) {
	return embed.Synthetic(embed.DefaultSyntheticParams(seed))
}

// MineWorkload mines query/gold pairs at the given cosine threshold
// (paper: 1,000 pairs at 0.6).
func MineWorkload(v *Vocabulary, numQueries int, minCos float64, seed uint64) (*Benchmark, error) {
	return embed.MineBenchmark(v, numQueries, minCos, seed)
}
