package expt

import (
	"fmt"
	"strconv"

	"diffusearch/internal/core"
	"diffusearch/internal/graph"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/stats"
)

// AccuracyConfig parameterizes the Fig. 3 experiment (§V-C): top-1 hit
// accuracy as a function of query-to-gold distance, for one document count
// M and several teleport probabilities.
type AccuracyConfig struct {
	M           int       // documents stored in the network
	Alphas      []float64 // teleport probabilities (paper: 0.1, 0.5, 0.9)
	MaxDistance int       // largest sampled query distance (paper: 8)
	TTL         int       // hop budget (paper: 50)
	Iterations  int       // random placements averaged per point
	Seed        uint64

	// Optional ablation knobs (zero values reproduce the paper).
	Policy        core.Policy      // nil: GreedyPolicy{Fanout: 1}
	Visited       core.VisitedMode // 0: VisitedNodeMemory
	Summarization string           // "": "sum"
	Normalization graph.Normalization
	Correlated    bool // place pool documents with spatial correlation
	CorrRadius    int  // BFS ball radius for correlated placement
}

func (c AccuracyConfig) withDefaults() AccuracyConfig {
	if c.MaxDistance <= 0 {
		c.MaxDistance = 8
	}
	if c.TTL <= 0 {
		c.TTL = 50
	}
	if c.Iterations <= 0 {
		c.Iterations = 100
	}
	if len(c.Alphas) == 0 {
		c.Alphas = []float64{0.1, 0.5, 0.9}
	}
	if c.Summarization == "" {
		c.Summarization = "sum"
	}
	if c.Normalization == 0 {
		c.Normalization = graph.ColumnStochastic
	}
	if c.CorrRadius <= 0 {
		c.CorrRadius = 2
	}
	return c
}

// AccuracySeries is one α-curve of a Fig. 3 subplot.
type AccuracySeries struct {
	Alpha    float64
	Hits     []int // successful queries per distance 0..MaxDistance
	Samples  []int // issued queries per distance
	Accuracy []float64
}

// AccuracyResult is one Fig. 3 subplot (fixed M, one series per α).
type AccuracyResult struct {
	M      int
	TTL    int
	Series []AccuracySeries
}

// AccuracyByDistance reproduces one subplot of Fig. 3. Every iteration
// places one gold and M−1 irrelevant documents (Fig. 2 line 2), computes
// personalization vectors, and issues one query from a sampled node at each
// hop distance 0..MaxDistance from the gold host; candidate scores come
// from the exact scalar-projection fast path so the full-scale network
// stays tractable.
func AccuracyByDistance(env *Environment, cfg AccuracyConfig) (AccuracyResult, error) {
	cfg = cfg.withDefaults()
	if cfg.M < 1 {
		return AccuracyResult{}, fmt.Errorf("expt: M must be >= 1, got %d", cfg.M)
	}
	if cfg.M > env.MaxPoolDocs() {
		return AccuracyResult{}, fmt.Errorf("expt: M=%d exceeds pool capacity %d", cfg.M, env.MaxPoolDocs())
	}
	net := core.NewNetwork(env.Graph, env.Bench.Vocabulary(),
		core.WithSummarization(cfg.Summarization),
		core.WithNormalization(cfg.Normalization))
	res := AccuracyResult{M: cfg.M, TTL: cfg.TTL}
	for _, alpha := range cfg.Alphas {
		res.Series = append(res.Series, AccuracySeries{
			Alpha:   alpha,
			Hits:    make([]int, cfg.MaxDistance+1),
			Samples: make([]int, cfg.MaxDistance+1),
		})
	}

	for iter := 0; iter < cfg.Iterations; iter++ {
		r := randx.Derive(cfg.Seed, "fig3", strconv.Itoa(cfg.M), strconv.Itoa(iter))
		pair := env.Bench.SamplePair(r)
		query := env.Bench.Vocabulary().Vector(pair.Query)

		net.ClearDocuments()
		docs := append([]retrieval.DocID{pair.Gold}, env.Bench.SamplePool(r, cfg.M-1)...)
		hosts, err := placeHosts(r, env, docs, cfg)
		if err != nil {
			return AccuracyResult{}, err
		}
		if err := net.PlaceDocuments(docs, hosts); err != nil {
			return AccuracyResult{}, err
		}
		if err := net.ComputePersonalization(); err != nil {
			return AccuracyResult{}, err
		}
		goldHost := net.HostOf(pair.Gold)
		groups := env.Graph.NodesAtDistance(goldHost, cfg.MaxDistance)
		// One origin per distance, drawn before the α loop, and a walk seed
		// without the series index: the α columns walk the same query from
		// the same node and differ only in α (paired outcomes).
		origins := make([]graph.NodeID, cfg.MaxDistance+1)
		for d := range origins {
			origins[d] = -1 // no node exactly d hops away in this draw
			if len(groups[d]) > 0 {
				origins[d] = groups[d][r.IntN(len(groups[d]))]
			}
		}

		for si, alpha := range cfg.Alphas {
			scores, err := sharedScores(net, query, alpha)
			if err != nil {
				return AccuracyResult{}, err
			}
			series := &res.Series[si]
			for d, origin := range origins {
				if origin < 0 {
					continue
				}
				out, err := net.RunQuery(origin, query, pair.Gold, core.QueryConfig{
					TTL:     cfg.TTL,
					Policy:  cfg.Policy,
					Visited: cfg.Visited,
					Seed:    randx.DeriveN(cfg.Seed, "fig3-walk", iter*1000+d).Uint64(),
					Scores:  scores,
				})
				if err != nil {
					return AccuracyResult{}, err
				}
				series.Samples[d]++
				if out.Found {
					series.Hits[d]++
				}
			}
		}
	}
	for si := range res.Series {
		s := &res.Series[si]
		s.Accuracy = make([]float64, len(s.Hits))
		for d := range s.Hits {
			if s.Samples[d] > 0 {
				s.Accuracy[d] = float64(s.Hits[d]) / float64(s.Samples[d])
			}
		}
	}
	return res, nil
}

// placeHosts applies the configured placement model.
func placeHosts(r *randx.Rand, env *Environment, docs []retrieval.DocID, cfg AccuracyConfig) ([]graph.NodeID, error) {
	if !cfg.Correlated {
		return core.UniformHosts(r, len(docs), env.Graph.NumNodes()), nil
	}
	vocab := env.Bench.Vocabulary()
	return core.CorrelatedHosts(r, env.Graph, docs,
		func(d retrieval.DocID) int { return vocab.Cluster(d) }, cfg.CorrRadius)
}

// FormatAccuracy renders an AccuracyResult in the layout of a Fig. 3
// subplot: one row per distance, one accuracy column per α.
func FormatAccuracy(res AccuracyResult) *stats.Table {
	header := []string{"distance"}
	for _, s := range res.Series {
		header = append(header, fmt.Sprintf("acc(α=%.1f)", s.Alpha), fmt.Sprintf("n(α=%.1f)", s.Alpha))
	}
	t := &stats.Table{Header: header}
	if len(res.Series) == 0 {
		return t
	}
	for d := range res.Series[0].Accuracy {
		row := []string{strconv.Itoa(d)}
		for _, s := range res.Series {
			row = append(row, fmt.Sprintf("%.3f", s.Accuracy[d]), strconv.Itoa(s.Samples[d]))
		}
		t.AddRow(row...)
	}
	return t
}
