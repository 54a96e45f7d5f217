package diffusearch_test

import (
	"testing"

	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/expt"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
)

// Allocation bars for the parallel engine's hot paths at paper scale. Each
// bar is the committed allocs/op beside it ×1.25, rounded down; the
// committed counts were taken with the worker pool pinned at 4 so they do
// not depend on the machine's core count.
const (
	runParallelAllocs, runParallelAllocsMax   = 228, 285
	scoreBatch1Allocs, scoreBatch1AllocsMax   = 162, 202
	scoreBatch8Allocs, scoreBatch8AllocsMax   = 193, 241
	scoreBatch64Allocs, scoreBatch64AllocsMax = 310, 387
)

// TestParallelAllocsWithinBars counts the allocations of one matrix-form
// parallel diffusion (500 placed documents, Tol 1e-6) and of parallel
// ScoreBatch calls at B = 1, 8 and 64 on the same placement. Allocation
// counts, unlike wall clock, are the same on every machine, so a bar
// broken here is a real regression in the kernels' buffer reuse.
func TestParallelAllocsWithinBars(t *testing.T) {
	const (
		seed    = 42
		docs    = 500
		alpha   = 0.5
		workers = 4
	)
	env, err := expt.NewEnvironment(expt.ScaledParams(seed, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	net := core.NewNetwork(env.Graph, env.Bench.Vocabulary())
	// The stream label reproduces the placement and queries the committed
	// counts were measured on.
	r := randx.Derive(seed, "benchjson")
	pair := env.Bench.SamplePair(r)
	placed := append([]retrieval.DocID{pair.Gold}, env.Bench.SamplePool(r, docs-1)...)
	if err := net.PlaceDocuments(placed, core.UniformHosts(r, len(placed), env.Graph.NumNodes())); err != nil {
		t.Fatal(err)
	}
	if err := net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	queries := make([][]float64, 64)
	for j := range queries {
		queries[j] = env.Bench.Vocabulary().Vector(env.Bench.SamplePair(r).Query)
	}
	e0, tr := net.PersonalizationMatrix(), net.Transition()
	params := diffuse.Params{Alpha: alpha, Tol: 1e-6, Workers: workers}
	req := core.DiffusionRequest{Engine: diffuse.EngineParallel, Alpha: alpha, Workers: workers, Seed: seed}
	scoreBatch := func(b int) func() error {
		return func() error {
			_, _, err := net.ScoreBatch(queries[:b], req)
			return err
		}
	}
	for _, c := range []struct {
		name           string
		committed, bar float64
		run            func() error
	}{
		{"run parallel", runParallelAllocs, runParallelAllocsMax, func() error {
			_, _, err := diffuse.Run(diffuse.EngineParallel, tr, e0, params, seed)
			return err
		}},
		{"scorebatch B=1", scoreBatch1Allocs, scoreBatch1AllocsMax, scoreBatch(1)},
		{"scorebatch B=8", scoreBatch8Allocs, scoreBatch8AllocsMax, scoreBatch(8)},
		{"scorebatch B=64", scoreBatch64Allocs, scoreBatch64AllocsMax, scoreBatch(64)},
	} {
		got := testing.AllocsPerRun(5, func() {
			if err := c.run(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		t.Logf("%s: %.0f allocs/op (committed %.0f, bar %.0f)", c.name, got, c.committed, c.bar)
		if got > c.bar {
			t.Errorf("%s: %.0f allocs/op, want ≤ %.0f (committed %.0f ×1.25)", c.name, got, c.bar, c.committed)
		}
	}
}
