// Package expt is the experiment harness: it implements the simulation
// pipeline of Fig. 2 and regenerates every table and figure of the paper's
// evaluation (§V) plus the repo's ablation extensions (see ROADMAP.md).
package expt

import (
	"fmt"

	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/embed"
	"diffusearch/internal/gengraph"
	"diffusearch/internal/graph"
)

// Environment bundles the fixed inputs of the evaluation: the P2P topology
// and the mined query/gold workload (Fig. 2 line 1). One environment is
// shared by all experiment iterations; only document placement varies.
type Environment struct {
	Graph *graph.Graph
	Bench *embed.Benchmark
	Seed  uint64
}

// EnvironmentParams size an Environment.
type EnvironmentParams struct {
	GraphNodes      int     // P2P nodes (paper: 4,039)
	TargetAvgDegree float64 // (paper: ≈43.7)
	VocabWords      int     // synthetic vocabulary size (stands in for GloVe)
	VocabDim        int     // embedding dimension (paper: 300)
	VocabClusters   int
	VocabSpread     float64
	VocabCommon     float64 // GloVe-like anisotropy (see embed.SyntheticParams)
	NumQueries      int     // mined query/gold pairs (paper: 1,000)
	GoldThreshold   float64 // cosine acceptance threshold (paper: 0.6)
	Seed            uint64
}

// PaperParams returns the full-scale configuration mirroring §V-A/§V-B:
// a Facebook-like 4,039-node graph, a 15k-word 300-d vocabulary, and 1,000
// query/gold pairs mined at cosine ≥ 0.6.
func PaperParams(seed uint64) EnvironmentParams {
	return EnvironmentParams{
		GraphNodes:      4039,
		TargetAvgDegree: 43.7,
		VocabWords:      15000,
		VocabDim:        300,
		VocabClusters:   1200,
		VocabSpread:     0.55,
		VocabCommon:     0.6,
		NumQueries:      1000,
		GoldThreshold:   embed.DefaultGoldThreshold,
		Seed:            seed,
	}
}

// ScaledParams returns a reduced configuration (≈scale × the paper sizes)
// for tests and benchmarks. scale must be in (0, 1].
func ScaledParams(seed uint64, scale float64) EnvironmentParams {
	p := PaperParams(seed)
	clampInt := func(v *int, minV int) {
		*v = int(float64(*v) * scale)
		if *v < minV {
			*v = minV
		}
	}
	clampInt(&p.GraphNodes, 60)
	clampInt(&p.VocabWords, 400)
	clampInt(&p.VocabClusters, 40)
	clampInt(&p.NumQueries, 20)
	p.VocabDim = 64
	p.TargetAvgDegree = 12
	return p
}

// NewEnvironment builds the topology and mines the workload.
func NewEnvironment(p EnvironmentParams) (*Environment, error) {
	g, err := gengraph.SocialCircles(gengraph.SocialCirclesParams{
		Nodes:           p.GraphNodes,
		TargetAvgDegree: p.TargetAvgDegree,
		MeanCircleSize:  meanCircleFor(p.GraphNodes),
		SizeSigma:       0.45,
		IntraFraction:   0.97,
		MaxIntraProb:    0.72,
		BridgeLocality:  0.9,
		Seed:            p.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("expt: generate graph: %w", err)
	}
	vocab, err := embed.Synthetic(embed.SyntheticParams{
		Words:           p.VocabWords,
		Dim:             p.VocabDim,
		Clusters:        p.VocabClusters,
		Spread:          p.VocabSpread,
		CommonComponent: p.VocabCommon,
		Seed:            p.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("expt: generate vocabulary: %w", err)
	}
	bench, err := embed.MineBenchmark(vocab, p.NumQueries, p.GoldThreshold, p.Seed)
	if err != nil {
		return nil, fmt.Errorf("expt: mine workload: %w", err)
	}
	return &Environment{Graph: g, Bench: bench, Seed: p.Seed}, nil
}

// meanCircleFor keeps community sizes proportionate on scaled graphs.
func meanCircleFor(nodes int) float64 {
	switch {
	case nodes >= 2000:
		return 72
	case nodes >= 500:
		return 40
	default:
		return 20
	}
}

// MaxPoolDocs returns the largest M supported by the mined pool (one gold
// plus M−1 irrelevant documents must fit).
func (e *Environment) MaxPoolDocs() int { return len(e.Bench.Pool) + 1 }

// sharedScores computes the per-node relevance scores one experiment
// iteration shares across its walks: a single-query ScoreBatch on the
// synchronous engine, which keeps every harness table bit-compatible with
// the historical ppr.PPRFilter scoring path while routing through the
// unified request API.
func sharedScores(net *core.Network, query []float64, alpha float64) ([]float64, error) {
	batch, _, err := net.ScoreBatch([][]float64{query}, core.DiffusionRequest{
		Engine: diffuse.EngineSync, Alpha: alpha,
	})
	if err != nil {
		return nil, err
	}
	return batch[0], nil
}
