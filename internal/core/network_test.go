package core

import (
	"errors"
	"math"
	"testing"

	"diffusearch/internal/diffuse"
	"diffusearch/internal/embed"
	"diffusearch/internal/gengraph"
	"diffusearch/internal/graph"
	"diffusearch/internal/ppr"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/vecmath"
)

// fixture bundles a small network with a mined benchmark.
type fixture struct {
	net   *Network
	bench *embed.Benchmark
}

func newFixture(t *testing.T, opts ...Option) *fixture {
	t.Helper()
	vocab, err := embed.Synthetic(embed.SyntheticParams{
		Words: 800, Dim: 64, Clusters: 80, Spread: 0.5, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := embed.MineBenchmark(vocab, 50, embed.DefaultGoldThreshold, 77)
	if err != nil {
		t.Fatal(err)
	}
	g := gengraph.ErdosRenyi(80, 0.08, 77)
	g, _ = g.LargestComponent()
	return &fixture{net: NewNetwork(g, vocab, opts...), bench: bench}
}

// place puts one gold and m-1 pool docs uniformly, returning the pair used.
func (f *fixture) place(t *testing.T, m int, seed uint64) embed.QueryPair {
	t.Helper()
	r := randx.New(seed)
	pair := f.bench.SamplePair(r)
	docs := append([]retrieval.DocID{pair.Gold}, f.bench.SamplePool(r, m-1)...)
	hosts := UniformHosts(r, len(docs), f.net.Graph().NumNodes())
	if err := f.net.PlaceDocuments(docs, hosts); err != nil {
		t.Fatal(err)
	}
	return pair
}

func TestNetworkLifecycleErrors(t *testing.T) {
	f := newFixture(t)
	if _, err := f.net.Personalization(0); !errors.Is(err, ErrNoPersonalization) {
		t.Fatalf("want ErrNoPersonalization, got %v", err)
	}
	if _, err := f.net.Run(DiffusionRequest{Engine: diffuse.EngineSync, Alpha: 0.5}); !errors.Is(err, ErrNoPersonalization) {
		t.Fatalf("diffuse before personalization: %v", err)
	}
	if _, err := f.net.NodeEmbedding(0); !errors.Is(err, ErrNotDiffused) {
		t.Fatalf("want ErrNotDiffused, got %v", err)
	}
	if _, err := f.net.NodeScores([]float64{1}); !errors.Is(err, ErrNotDiffused) {
		t.Fatalf("want ErrNotDiffused, got %v", err)
	}
}

func TestPlaceDocumentsValidation(t *testing.T) {
	f := newFixture(t)
	if err := f.net.PlaceDocuments([]retrieval.DocID{1, 2}, []graph.NodeID{0}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if err := f.net.PlaceDocuments([]retrieval.DocID{1}, []graph.NodeID{-1}); err == nil {
		t.Fatal("bad host must error")
	}
	if err := f.net.PlaceDocuments([]retrieval.DocID{1}, []graph.NodeID{0}); err != nil {
		t.Fatal(err)
	}
	if err := f.net.PlaceDocuments([]retrieval.DocID{1}, []graph.NodeID{2}); err == nil {
		t.Fatal("duplicate placement must error")
	}
	if f.net.HostOf(1) != 0 {
		t.Fatal("HostOf broken")
	}
	if f.net.HostOf(999) != -1 {
		t.Fatal("unplaced doc must map to -1")
	}
	if f.net.NumDocuments() != 1 {
		t.Fatal("NumDocuments broken")
	}
	f.net.ClearDocuments()
	if f.net.NumDocuments() != 0 || f.net.HostOf(1) != -1 {
		t.Fatal("ClearDocuments broken")
	}
}

func TestPersonalizationMatchesEq3(t *testing.T) {
	f := newFixture(t)
	f.place(t, 30, 1)
	if err := f.net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < f.net.Graph().NumNodes(); u++ {
		want := make([]float64, f.net.Vocabulary().Dim())
		for _, d := range f.net.DocsAt(u) {
			vecmath.AXPY(want, 1, f.net.Vocabulary().Vector(d))
		}
		got, err := f.net.Personalization(u)
		if err != nil {
			t.Fatal(err)
		}
		if vecmath.MaxAbsDiff(got, want) > 1e-12 {
			t.Fatalf("node %d personalization mismatch", u)
		}
	}
}

func TestDiffuseSyncAndAsyncAgree(t *testing.T) {
	f := newFixture(t)
	f.place(t, 40, 2)
	if err := f.net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.net.Run(DiffusionRequest{Engine: diffuse.EngineSync, Alpha: 0.5, Tol: 1e-10}); err != nil {
		t.Fatal(err)
	}
	sync := make([][]float64, f.net.Graph().NumNodes())
	for u := range sync {
		e, err := f.net.NodeEmbedding(u)
		if err != nil {
			t.Fatal(err)
		}
		sync[u] = vecmath.Clone(e)
	}
	if _, err := f.net.Run(DiffusionRequest{Engine: diffuse.EngineAsynchronous, Alpha: 0.5, Tol: 1e-10, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	for u := range sync {
		e, err := f.net.NodeEmbedding(u)
		if err != nil {
			t.Fatal(err)
		}
		if vecmath.MaxAbsDiff(e, sync[u]) > 1e-6 {
			t.Fatalf("node %d: async vs sync embeddings differ", u)
		}
	}
}

func TestFastNodeScoresEqualsVectorMode(t *testing.T) {
	// The scalar-projection fast path must reproduce the vector-mode scores
	// exactly (up to iteration tolerance) — this is the correctness
	// statement that lets the full-scale experiments avoid 300-d diffusion.
	f := newFixture(t)
	pair := f.place(t, 60, 3)
	if err := f.net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{0.1, 0.5, 0.9} {
		if _, err := f.net.Run(DiffusionRequest{Engine: diffuse.EngineSync, Alpha: alpha, Tol: 1e-12}); err != nil {
			t.Fatal(err)
		}
		q := f.net.Vocabulary().Vector(pair.Query)
		slow, err := f.net.NodeScores(q)
		if err != nil {
			t.Fatal(err)
		}
		batch, _, err := f.net.ScoreBatch([][]float64{q}, DiffusionRequest{Engine: diffuse.EngineSync, Alpha: alpha, Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		fast := batch[0]
		for u := range slow {
			if math.Abs(slow[u]-fast[u]) > 1e-7 {
				t.Fatalf("alpha=%v node %d: slow %g fast %g", alpha, u, slow[u], fast[u])
			}
		}
	}
}

func TestFastNodeScoresRequiresDotProduct(t *testing.T) {
	f := newFixture(t, WithScorer(retrieval.CosineSim))
	f.place(t, 10, 4)
	if err := f.net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.net.ScoreBatch([][]float64{f.net.Vocabulary().Vector(0)}, DiffusionRequest{Engine: diffuse.EngineSync, Alpha: 0.5}); err == nil {
		t.Fatal("cosine scorer must be rejected by the fast path")
	}
}

func TestCentralizedEngineFindsGold(t *testing.T) {
	f := newFixture(t)
	pair := f.place(t, 50, 5)
	engine := f.net.CentralizedEngine()
	if engine.Len() != 50 {
		t.Fatalf("engine indexed %d docs", engine.Len())
	}
	res := engine.Search(f.net.Vocabulary().Vector(pair.Query), 1, retrieval.DotProduct)
	if len(res) != 1 || res[0].Doc != pair.Gold {
		t.Fatalf("centralized search must retrieve the gold: %v (want %d)", res, pair.Gold)
	}
}

func TestSummarizationOption(t *testing.T) {
	f := newFixture(t, WithSummarization("unit"))
	f.place(t, 20, 6)
	if err := f.net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < f.net.Graph().NumNodes(); u++ {
		p, err := f.net.Personalization(u)
		if err != nil {
			t.Fatal(err)
		}
		norm := vecmath.Norm(p)
		if norm != 0 && math.Abs(norm-1) > 1e-9 {
			t.Fatalf("node %d: unit summarization norm %g", u, norm)
		}
	}
	bad := newFixture(t, WithSummarization("bogus"))
	bad.place(t, 5, 7)
	if err := bad.net.ComputePersonalization(); err == nil {
		t.Fatal("bogus summarization must error")
	}
}

func TestDiffuseWithHeatKernelFilter(t *testing.T) {
	// The heat kernel is the alternative low-pass filter of §II-C: walks
	// guided by it must still find nearby documents.
	f := newFixture(t)
	pair := f.place(t, 20, 30)
	if err := f.net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	st, err := f.net.Run(DiffusionRequest{Filter: ppr.HeatKernelFilter{T: 2, Terms: 40}})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("heat kernel must converge")
	}
	goldHost := f.net.HostOf(pair.Gold)
	groups := f.net.Graph().NodesAtDistance(goldHost, 2)
	if len(groups[2]) == 0 {
		t.Skip("no node at distance 2")
	}
	out, err := f.net.RunQuery(groups[2][0], f.net.Vocabulary().Vector(pair.Query), pair.Gold,
		QueryConfig{TTL: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found {
		t.Fatal("heat-kernel-guided walk failed to find a 2-hop gold with M=20")
	}
	// Before personalization, the filter path must error like the others.
	fresh := newFixture(t)
	if _, err := fresh.net.Run(DiffusionRequest{Filter: ppr.HeatKernelFilter{T: 1}}); !errors.Is(err, ErrNoPersonalization) {
		t.Fatalf("want ErrNoPersonalization, got %v", err)
	}
}

func TestNormalizationOption(t *testing.T) {
	f := newFixture(t, WithNormalization(graph.Symmetric))
	f.place(t, 20, 8)
	if err := f.net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.net.Run(DiffusionRequest{Engine: diffuse.EngineSync, Alpha: 0.5}); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementInvalidatesDiffusion(t *testing.T) {
	f := newFixture(t)
	f.place(t, 10, 9)
	if err := f.net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.net.Run(DiffusionRequest{Engine: diffuse.EngineSync, Alpha: 0.5}); err != nil {
		t.Fatal(err)
	}
	// Placing more documents must invalidate stale embeddings.
	if err := f.net.PlaceDocuments([]retrieval.DocID{f.bench.Pool[len(f.bench.Pool)-1]}, []graph.NodeID{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.net.NodeEmbedding(0); !errors.Is(err, ErrNotDiffused) {
		t.Fatal("stale embeddings must be invalidated by placement")
	}
}

func TestUniformHostsRange(t *testing.T) {
	r := randx.New(4)
	hosts := UniformHosts(r, 500, 37)
	if len(hosts) != 500 {
		t.Fatalf("len %d", len(hosts))
	}
	seen := make(map[graph.NodeID]bool)
	for _, h := range hosts {
		if h < 0 || h >= 37 {
			t.Fatalf("host %d out of range", h)
		}
		seen[h] = true
	}
	if len(seen) < 30 {
		t.Fatalf("uniform placement covered only %d/37 nodes", len(seen))
	}
}

func TestCorrelatedHostsStayInBall(t *testing.T) {
	g := gengraph.Grid(8, 8)
	r := randx.New(5)
	docs := []retrieval.DocID{10, 11, 12, 20, 21}
	clusterOf := func(d retrieval.DocID) int { return d / 10 } // {10,11,12} vs {20,21}
	hosts, err := CorrelatedHosts(r, g, docs, clusterOf, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Docs in the same cluster must be within 2 hops of each other
	// (both within radius-1 of a shared centre).
	for i := range docs {
		for j := i + 1; j < len(docs); j++ {
			if clusterOf(docs[i]) != clusterOf(docs[j]) {
				continue
			}
			d := g.BFSDistances(hosts[i])[hosts[j]]
			if d > 2 || d < 0 {
				t.Fatalf("same-cluster docs %d,%d placed %d hops apart", docs[i], docs[j], d)
			}
		}
	}
	if _, err := CorrelatedHosts(r, g, docs, clusterOf, -1); err == nil {
		t.Fatal("negative radius must error")
	}
}
