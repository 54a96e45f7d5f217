package expt

import (
	"testing"

	"diffusearch/internal/core"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
)

// TestBatchScaling scores the same benchmark queries on one experiment
// placement at B=1 and as one B=8 ScoreBatch call: the batch fills every
// per-column stat and costs fewer diffusion messages per query, since it
// sends each row once per sweep for all B columns.
func TestBatchScaling(t *testing.T) {
	env := scaledEnv(t)
	net := core.NewNetwork(env.Graph, env.Bench.Vocabulary())
	r := randx.Derive(5, "batch-scaling")
	pair := env.Bench.SamplePair(r)
	docs := append([]retrieval.DocID{pair.Gold}, env.Bench.SamplePool(r, 49)...)
	if err := net.PlaceDocuments(docs, core.UniformHosts(r, len(docs), env.Graph.NumNodes())); err != nil {
		t.Fatal(err)
	}
	if err := net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	const b = 8
	queries := make([][]float64, b)
	for j := range queries {
		queries[j] = env.Bench.Vocabulary().Vector(env.Bench.SamplePair(r).Query)
	}
	req := core.DiffusionRequest{Alpha: 0.5, Seed: 5}
	msgsPerQuery := make(map[int]float64)
	for _, width := range []int{1, b} {
		_, st, err := net.ScoreBatch(queries[:width], req)
		if err != nil {
			t.Fatalf("B=%d: %v", width, err)
		}
		if st.Messages <= 0 || st.Sweeps == 0 {
			t.Fatalf("B=%d stats not populated: %+v", width, st)
		}
		if len(st.ColumnSweeps) != width {
			t.Fatalf("B=%d: %d column sweep counts", width, len(st.ColumnSweeps))
		}
		msgsPerQuery[width] = float64(st.Messages) / float64(width)
	}
	if msgsPerQuery[b] >= msgsPerQuery[1] {
		t.Fatalf("batch messages/query %f not below sequential %f", msgsPerQuery[b], msgsPerQuery[1])
	}
	if _, _, err := net.ScoreBatch([][]float64{{1}}, req); err == nil {
		t.Fatal("a query of the wrong dimension must error")
	}
}
