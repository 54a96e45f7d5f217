package diffusearch_test

import (
	"testing"

	"diffusearch"
)

// TestPublicAPIEndToEnd drives the whole pipeline exactly as the package
// documentation advertises.
func TestPublicAPIEndToEnd(t *testing.T) {
	env, err := diffusearch.NewScaledEnvironment(42, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	net := diffusearch.NewNetwork(env.Graph, env.Bench.Vocabulary())
	r := diffusearch.NewRand(42)
	pair := env.Bench.SamplePair(r)
	docs := append([]diffusearch.DocID{pair.Gold}, env.Bench.SamplePool(r, 49)...)
	if err := net.PlaceDocuments(docs, diffusearch.UniformHosts(r, len(docs), env.Graph.NumNodes())); err != nil {
		t.Fatal(err)
	}
	if err := net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(diffusearch.DiffusionRequest{Alpha: 0.5, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	query := env.Bench.Vocabulary().Vector(pair.Query)
	out, err := net.RunQuery(net.HostOf(pair.Gold), query, pair.Gold, diffusearch.QueryConfig{TTL: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found || out.HopsToGold != 0 {
		t.Fatalf("local query must find the gold immediately: %+v", out)
	}
	// Batch scoring through the same request API, as the package docs
	// advertise: per-query score slices drive walks via QueryConfig.Scores.
	scores, st, err := net.ScoreBatch([][]float64{query, query}, diffusearch.DiffusionRequest{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 2 || len(st.ColumnSweeps) != 2 {
		t.Fatalf("batch scoring shape: %d slices, stats %+v", len(scores), st)
	}
	shared, err := net.RunQuery(net.HostOf(pair.Gold), query, pair.Gold,
		diffusearch.QueryConfig{TTL: 50, Scores: scores[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !shared.Found {
		t.Fatalf("batch-scored walk must find the local gold: %+v", shared)
	}
}

func TestNewSocialGraphStats(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale graph generation")
	}
	g := diffusearch.NewSocialGraph(1)
	if g.NumNodes() != 4039 {
		t.Fatalf("nodes %d", g.NumNodes())
	}
	if g.AverageDegree() < 35 || g.AverageDegree() > 53 {
		t.Fatalf("avg degree %.1f", g.AverageDegree())
	}
}

func TestNewVocabularyAndWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale vocabulary generation")
	}
	v, err := diffusearch.NewVocabulary(2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 15000 || v.Dim() != 300 {
		t.Fatalf("vocabulary %dx%d", v.Len(), v.Dim())
	}
	b, err := diffusearch.MineWorkload(v, 100, 0.6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Pairs) != 100 {
		t.Fatalf("pairs %d", len(b.Pairs))
	}
}

func TestPolicyTypesAreUsable(t *testing.T) {
	var p diffusearch.Policy = diffusearch.GreedyPolicy{Fanout: 2}
	if p.Name() != "greedy" {
		t.Fatal("policy re-export broken")
	}
	if diffusearch.VisitedNodeMemory.String() != "node-memory" {
		t.Fatal("visited-mode re-export broken")
	}
}
