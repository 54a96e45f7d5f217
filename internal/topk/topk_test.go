package topk_test

import (
	"runtime"
	"testing"

	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/embed"
	"diffusearch/internal/graph"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/topk"
)

// hubAdversarialGraph and communityGraph are the same topologies the
// walkindex property tests use: hubs wired across the whole
// graph (dense reverse columns, the table store's worst case) and a
// milder blocked topology.
func hubAdversarialGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		b.AddEdge(u, (u+1)%n)
	}
	for _, h := range []graph.NodeID{0, n/2 - 1, n / 2, n - 1} {
		for v := 0; v < n; v += 4 {
			if v != h {
				b.AddEdge(h, v)
			}
		}
	}
	return b.Build()
}

func communityGraph(n, blocks int) *graph.Graph {
	b := graph.NewBuilder(n)
	size := n / blocks
	r := randx.New(5)
	for c := 0; c < blocks; c++ {
		lo := c * size
		hi := lo + size
		if c == blocks-1 {
			hi = n
		}
		for u := lo; u < hi; u++ {
			for t := 0; t < 4; t++ {
				v := lo + r.IntN(hi-lo)
				if v != u {
					b.AddEdge(u, v)
				}
			}
		}
		b.AddEdge(lo, (hi)%n)
	}
	return b.Build()
}

func buildPair(t *testing.T, g *graph.Graph, seed uint64) (*core.Network, [][]float64) {
	t.Helper()
	vocab, err := embed.Synthetic(embed.SyntheticParams{
		Words: 300, Dim: 24, Clusters: 25, Spread: 0.55, CommonComponent: 0.6, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := core.NewNetwork(g, vocab)
	r := randx.Derive(seed, "topk-test")
	docs := make([]retrieval.DocID, 80)
	for i := range docs {
		docs[i] = retrieval.DocID(i)
	}
	if err := net.PlaceDocuments(docs, core.UniformHosts(r, len(docs), g.NumNodes())); err != nil {
		t.Fatal(err)
	}
	if err := net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	queries := make([][]float64, 5)
	for j := range queries {
		queries[j] = vocab.Vector(retrieval.DocID(100 + 7*j))
	}
	return net, queries
}

// sameSet compares two rankings as SETS — the certified contract:
// membership matches the converged diffusion, within-set order may come
// from the early-stopped iterate.
func sameSet(a, b core.RankedResult) bool {
	if len(a.IDs) != len(b.IDs) {
		return false
	}
	seen := make(map[graph.NodeID]bool, len(a.IDs))
	for _, u := range a.IDs {
		seen[u] = true
	}
	for _, u := range b.IDs {
		if !seen[u] {
			return false
		}
	}
	return true
}

// TestTopKMatchesFullVector is the ISSUE acceptance property: the
// bidirectional backend's top-k set must equal the top-k of a
// full-vector ScoreBatch (ties by node id) across engines × workers ×
// topologies, including k=1 and k ≥ the candidate-set size. Certified
// columns are set-exact by the certificate; uncertified ones follow the
// identical trajectory a plain ScoreBatch would, so every column must
// agree.
func TestTopKMatchesFullVector(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"hub-adversarial": hubAdversarialGraph(140),
		"community":       communityGraph(150, 5),
	}
	type combo struct {
		engine  diffuse.Engine
		workers int
	}
	combos := []combo{
		{diffuse.EngineSync, 0},
		{diffuse.EngineAsynchronous, 0},
		{diffuse.EngineParallel, 1},
		{diffuse.EngineParallel, 4},
		{diffuse.EngineParallel, runtime.GOMAXPROCS(0)},
	}
	for name, g := range graphs {
		net, queries := buildPair(t, g, 42)
		numCands := len(net.DocHosts())
		if numCands == 0 {
			t.Fatalf("%s: no candidates", name)
		}
		for _, ks := range []int{1, 10, numCands, numCands + 5} {
			for _, c := range combos {
				req := core.DiffusionRequest{Engine: c.engine, Alpha: 0.5, Tol: 1e-9, Workers: c.workers, Seed: 42, TopK: ks}
				net.SetRanker(nil)
				want, _, err := net.ScoreBatchTopK(queries, req)
				if err != nil {
					t.Fatalf("%s/%v/w%d k=%d: fallback: %v", name, c.engine, c.workers, ks, err)
				}
				b, err := topk.Attach(net, topk.Config{Alpha: 0.5})
				if err != nil {
					t.Fatalf("%s: attach: %v", name, err)
				}
				if _, err := b.Build(); err != nil {
					t.Fatalf("%s: build: %v", name, err)
				}
				got, _, err := net.ScoreBatchTopK(queries, req)
				if err != nil {
					t.Fatalf("%s/%v/w%d k=%d: ranked: %v", name, c.engine, c.workers, ks, err)
				}
				for j := range got {
					if !sameSet(got[j], want[j]) {
						t.Fatalf("%s/%v/w%d k=%d query %d (certified=%v): ranked set %v != full-vector set %v",
							name, c.engine, c.workers, ks, j, got[j].Certified, got[j].IDs, want[j].IDs)
					}
				}
				if ks >= numCands {
					// k covers every candidate: trivially certified at the
					// first predicate call, full result length = numCands.
					for j := range got {
						if !got[j].Certified {
							t.Fatalf("%s/%v/w%d k=%d query %d: k ≥ %d candidates not trivially certified", name, c.engine, c.workers, ks, j, numCands)
						}
						if len(got[j].IDs) != numCands {
							t.Fatalf("%s k=%d: got %d ids, want %d", name, ks, len(got[j].IDs), numCands)
						}
					}
				}
			}
		}
	}
}

// TestTopKCertifiesEarly pins the point of the subsystem: at the serving
// tolerance, certified columns must exist and must retire before a
// full-vector run's sweep count on the sync engine (whose sweep counts
// are deterministic). Without this the backend silently degrades to a
// full-vector diffusion plus ranking.
func TestTopKCertifiesEarly(t *testing.T) {
	net, queries := buildPair(t, communityGraph(150, 5), 42)
	req := core.DiffusionRequest{Engine: diffuse.EngineSync, Alpha: 0.5, Tol: 1e-9, Seed: 42, TopK: 10}
	net.SetRanker(nil)
	_, fullSt, err := net.ScoreBatchTopK(queries, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := topk.Attach(net, topk.Config{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	got, st, err := net.ScoreBatchTopK(queries, req)
	if err != nil {
		t.Fatal(err)
	}
	certified := 0
	for _, r := range got {
		if r.Certified {
			certified++
		}
	}
	if certified == 0 {
		t.Fatalf("no column certified (full run took %d sweeps)", fullSt.Sweeps)
	}
	for j, r := range got {
		if r.Certified && st.ColumnSweeps[j] >= fullSt.ColumnSweeps[j] {
			t.Fatalf("query %d certified but retired at sweep %d, full vector needed %d",
				j, st.ColumnSweeps[j], fullSt.ColumnSweeps[j])
		}
	}
}

// TestTopKAlphaMismatchFallsBack: the reverse tables encode H for the
// configured alpha only; a request at another alpha must still answer
// exactly (plain diffusion plus ranking) with Certified=false.
func TestTopKAlphaMismatchFallsBack(t *testing.T) {
	net, queries := buildPair(t, communityGraph(120, 4), 13)
	b, err := topk.Attach(net, topk.Config{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	req := core.DiffusionRequest{Alpha: 0.3, Tol: 1e-9, Seed: 13, TopK: 10}
	got, _, err := net.ScoreBatchTopK(queries, req)
	if err != nil {
		t.Fatal(err)
	}
	net.SetRanker(nil)
	want, _, err := net.ScoreBatchTopK(queries, req)
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		if got[j].Certified {
			t.Fatalf("query %d: certified at a mismatched alpha", j)
		}
		if !sameSet(got[j], want[j]) {
			t.Fatalf("query %d: mismatch-alpha set %v != full-vector set %v", j, got[j].IDs, want[j].IDs)
		}
	}
}

// TestTopKExactAfterPatch drives the SIGHUP contract: build the tables,
// rewire part of the graph, PatchTopology with the closed neighbourhood,
// and check ranked answers against a fresh full-vector network on the
// NEW topology. Kept tables are re-measured (not rebuilt) before they
// certify again, so exactness must hold immediately after the patch.
func TestTopKExactAfterPatch(t *testing.T) {
	n := 150
	build := func(rewired bool) *graph.Graph {
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			b.AddEdge(u, (u+1)%n)
			if u%3 == 0 {
				b.AddEdge(u, (u+7)%n)
			}
		}
		if rewired {
			for v := 0; v < n; v += 5 {
				if v != 90 {
					b.AddEdge(90, v)
				}
			}
			b.AddEdge(40, 120)
		} else {
			b.AddEdge(40, 80)
		}
		return b.Build()
	}
	oldG, newG := build(false), build(true)
	net, _ := buildPair(t, oldG, 7)
	b, err := topk.Attach(net, topk.Config{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	before := b.Tables()
	if before == 0 {
		t.Fatal("no tables built")
	}

	refNet, refQueries := buildPair(t, newG, 7)
	req := core.DiffusionRequest{Engine: diffuse.EngineSync, Alpha: 0.5, Tol: 1e-9, Seed: 7, TopK: 10}
	want, _, err := refNet.ScoreBatchTopK(refQueries, req)
	if err != nil {
		t.Fatal(err)
	}

	newTr := graph.NewTransition(newG, graph.ColumnStochastic)
	closed := map[graph.NodeID]bool{40: true, 90: true, 80: true, 120: true}
	for _, g := range []*graph.Graph{oldG, newG} {
		for _, u := range []graph.NodeID{40, 90} {
			for _, v := range g.Neighbors(u) {
				closed[v] = true
			}
		}
	}
	var changed []graph.NodeID
	for u := range closed {
		changed = append(changed, u)
	}
	b.PatchTopology(newTr, changed)

	// Rank through the patched backend on a network over the NEW topology
	// with the same placement: dropped tables rebuild lazily, kept tables
	// re-measure, and the sets must match the fresh full-vector reference.
	patched, _ := buildPair(t, newG, 7)
	patched.SetRanker(b)
	got, _, err := patched.ScoreBatchTopK(refQueries, req)
	if err != nil {
		t.Fatal(err)
	}
	certified := 0
	for j := range got {
		if !sameSet(got[j], want[j]) {
			t.Fatalf("query %d after patch (certified=%v): set %v != fresh full-vector set %v",
				j, got[j].Certified, got[j].IDs, want[j].IDs)
		}
		if got[j].Certified {
			certified++
		}
	}
	if certified == 0 {
		t.Fatal("no column certified after the patch (lazy rebuild/re-measure did not restore certificates)")
	}
	if b.Tables() != before {
		t.Fatalf("lazy rebuild left %d tables, want %d", b.Tables(), before)
	}
}

// TestTopKRequestValidation pins the request-surface errors.
func TestTopKRequestValidation(t *testing.T) {
	net, queries := buildPair(t, communityGraph(120, 4), 13)
	if _, _, err := net.ScoreBatchTopK(queries, core.DiffusionRequest{Alpha: 0.5}); err == nil {
		t.Fatal("TopK=0 accepted")
	}
	b, err := topk.Attach(net, topk.Config{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	_ = b
	if _, _, err := net.ScoreBatchTopK(queries, core.DiffusionRequest{Alpha: 0.5}); err == nil {
		t.Fatal("TopK=0 accepted with ranker attached")
	}
}
