package walkindex_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/embed"
	"diffusearch/internal/graph"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/vecmath"
	"diffusearch/internal/walkindex"
)

// hubAdversarialGraph and communityGraph are the two property-test
// topologies: hubs wired across the whole graph (dense PPR
// columns, the walk index's worst storage case) and a milder blocked
// topology.
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
	r := randx.Derive(seed, "walkindex-test")
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

func maxDiff(a, b [][]float64) float64 {
	var m float64
	for j := range a {
		if d := vecmath.MaxAbsDiff(a[j], b[j]); d > m {
			m = d
		}
	}
	return m
}

// TestWalkIndexScoreBatchMatchesCSR is the ISSUE acceptance property:
// walk-index-backed ScoreBatch must match the CSR backend within the
// request Tol — bar 1e-6 at Tol=1e-9 — across engines × budgets (full
// store, a partial store, and a starved store) on both topologies. The
// residual finish makes any store state exact to the engine's accuracy,
// so the bar holds even when the budget leaves most seeds unindexed.
func TestWalkIndexScoreBatchMatchesCSR(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"hub-adversarial": hubAdversarialGraph(140),
		"community":       communityGraph(150, 5),
	}
	engines := []diffuse.Engine{diffuse.EngineParallel, diffuse.EngineSync, diffuse.EngineAsynchronous}
	budgets := []int64{-1, 32 << 10, 4 << 10} // unbounded, partial, starved
	for name, g := range graphs {
		net, queries := buildPair(t, g, 42)
		for _, eng := range engines {
			req := core.DiffusionRequest{Engine: eng, Alpha: 0.5, Tol: 1e-9, Seed: 42}
			want, _, err := net.ScoreBatch(queries, req)
			if err != nil {
				t.Fatalf("%s/%v: CSR: %v", name, eng, err)
			}
			for _, budget := range budgets {
				wnet, wqueries := buildPair(t, g, 42)
				in, err := walkindex.Attach(wnet, walkindex.Config{Alpha: 0.5, Budget: budget})
				if err != nil {
					t.Fatalf("%s/%v budget=%d: attach: %v", name, eng, budget, err)
				}
				if _, err := in.Backend().Build(); err != nil {
					t.Fatalf("%s/%v budget=%d: build: %v", name, eng, budget, err)
				}
				got, _, err := in.ScoreBatch(wqueries, req)
				if err != nil {
					t.Fatalf("%s/%v budget=%d: %v", name, eng, budget, err)
				}
				if d := maxDiff(got, want); d > 1e-6 {
					t.Fatalf("%s/%v budget=%d (%d segments): diverges from CSR by %g (bar 1e-6)",
						name, eng, budget, in.Backend().Segments(), d)
				}
			}
		}
	}
}

// TestWalkIndexAfterPatchCycle drives the staleness contract through a
// full InvalidateNodes-style patch cycle: build the index, rewire part
// of the graph, PatchTopology with the closed neighbourhood, and check
// the stale-but-kept segments still score within the bar against a
// fresh CSR network on the NEW topology — before and after the dropped
// segments are rebuilt.
func TestWalkIndexAfterPatchCycle(t *testing.T) {
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
			// The patch: node 40's extra edges move, node 90 gains a hub
			// fan-out.
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
	in, err := walkindex.Attach(net, walkindex.Config{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Backend().Build(); err != nil {
		t.Fatal(err)
	}
	before := in.Backend().Segments()
	if before == 0 {
		t.Fatal("no segments built")
	}

	// Reference: a fresh CSR network over the NEW topology with the same
	// placement.
	refNet, refQueries := buildPair(t, newG, 7)
	req := core.DiffusionRequest{Engine: diffuse.EngineParallel, Alpha: 0.5, Tol: 1e-9, Seed: 7}
	want, _, err := refNet.ScoreBatch(refQueries, req)
	if err != nil {
		t.Fatal(err)
	}

	// Patch: swap the network-equivalent state (the backend only needs
	// the new operator) and drop the closed neighbourhood of the change.
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
	in.Backend().PatchTopology(newTr, changed)
	if in.Backend().Segments() >= before {
		t.Fatalf("patch dropped no segments (%d before, %d after)", before, in.Backend().Segments())
	}

	// Score through the patched backend against the new-topology network:
	// stale segments plus the residual finish must still hit the bar.
	patched, _ := buildPair(t, newG, 7)
	patched.SetScorer(in.Backend())
	got, _, err := patched.ScoreBatch(refQueries, req)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(got, want); d > 1e-6 {
		t.Fatalf("stale index diverges from fresh CSR by %g (bar 1e-6)", d)
	}

	// Lazy rebuild restores full coverage; accuracy is unchanged.
	if _, err := in.Backend().Build(); err != nil {
		t.Fatal(err)
	}
	if miss := in.Backend().MissingSeeds(0); len(miss) != 0 {
		t.Fatalf("%d seeds still missing after rebuild", len(miss))
	}
	got, _, err = patched.ScoreBatch(refQueries, req)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(got, want); d > 1e-6 {
		t.Fatalf("rebuilt index diverges from fresh CSR by %g (bar 1e-6)", d)
	}
}

// TestWalkIndexEmptyStoreBypassesBitwise: an unbuilt index must be
// bit-for-bit the CSR backend (the bypass calls the same engine on the
// same operator), as must a request at a different alpha.
func TestWalkIndexEmptyStoreBypassesBitwise(t *testing.T) {
	g := communityGraph(120, 4)
	net, queries := buildPair(t, g, 13)
	req := core.DiffusionRequest{Alpha: 0.5, Seed: 13}
	want, _, err := net.ScoreBatch(queries, req)
	if err != nil {
		t.Fatal(err)
	}
	in, err := walkindex.Attach(net, walkindex.Config{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := in.ScoreBatch(queries, req)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(got, want); d != 0 {
		t.Fatalf("empty store differs from CSR by %g (want bitwise)", d)
	}

	// A built store at a different request alpha also bypasses bitwise.
	if _, err := in.Backend().Build(); err != nil {
		t.Fatal(err)
	}
	reqOther := core.DiffusionRequest{Alpha: 0.3, Seed: 13}
	wantOther, _, err := buildRef(t, g, reqOther)
	if err != nil {
		t.Fatal(err)
	}
	gotOther, _, err := in.ScoreBatch(queries, reqOther)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(gotOther, wantOther); d != 0 {
		t.Fatalf("alpha-mismatch request differs from CSR by %g (want bitwise)", d)
	}
}

func buildRef(t *testing.T, g *graph.Graph, req core.DiffusionRequest) ([][]float64, diffuse.Stats, error) {
	t.Helper()
	net, queries := buildPair(t, g, 13)
	return net.ScoreBatch(queries, req)
}

// TestWalkIndexDeterministic: identical store + query → identical bits.
func TestWalkIndexDeterministic(t *testing.T) {
	g := hubAdversarialGraph(140)
	run := func() [][]float64 {
		net, queries := buildPair(t, g, 11)
		in, err := walkindex.Attach(net, walkindex.Config{Alpha: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.Backend().Build(); err != nil {
			t.Fatal(err)
		}
		scores, _, err := in.ScoreBatch(queries, core.DiffusionRequest{Alpha: 0.5, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return scores
	}
	if d := maxDiff(run(), run()); d != 0 {
		t.Fatalf("two identical runs differ by %g", d)
	}
}

// TestWalkIndexRestoreDefault: SetScorer(nil) restores single-CSR
// scoring bit-for-bit.
func TestWalkIndexRestoreDefault(t *testing.T) {
	g := communityGraph(90, 3)
	net, queries := buildPair(t, g, 13)
	req := core.DiffusionRequest{Alpha: 0.5}
	want, _, err := net.ScoreBatch(queries, req)
	if err != nil {
		t.Fatal(err)
	}
	in, err := walkindex.Attach(net, walkindex.Config{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Backend().Build(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.ScoreBatch(queries, req); err != nil {
		t.Fatal(err)
	}
	net.SetScorer(nil)
	got, _, err := net.ScoreBatch(queries, req)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(got, want); d != 0 {
		t.Fatalf("restored default differs by %g", d)
	}
}

// TestWalkIndexConcurrentScoreAndBuild pins the copy-on-write contract:
// DiffuseSignal snapshots (tr, segs) under RLock and keeps reading the
// slice after releasing it, so build insertions and seed swaps must
// republish a clone instead of mutating published elements in place.
// This is the intended deployment shape — a Refresher building on the
// collector while Scheduler.Warm/ScoreBatch score directly — and it is
// what `go test -race` checks here.
func TestWalkIndexConcurrentScoreAndBuild(t *testing.T) {
	g := communityGraph(120, 4)
	net, _ := buildPair(t, g, 21)
	in, err := walkindex.Attach(net, walkindex.Config{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b := in.Backend()
	seeds := walkindex.DocSeeds(net)
	if len(seeds) < 8 {
		t.Fatalf("only %d doc seeds", len(seeds))
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	tr := net.Transition()
	params := diffuse.Params{Alpha: 0.5, Tol: 1e-9}

	// Every reader hammers a query supported on ALL seeds straight
	// through DiffuseSignal, so each assembly pass reads every store
	// element — the unlocked read window the COW contract protects spans
	// segments mid-eviction and mid-rebuild alike.
	const readers = 6
	query := func() *diffuse.Signal {
		x := vecmath.NewMatrix(n, 1)
		for _, s := range seeds {
			x.Set(s, 0, 1/float64(len(seeds)))
		}
		return diffuse.NewSignal(x)
	}
	refOut, _, err := diffuse.RunSignal(diffuse.EngineSync, tr, query(), params, 21)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), refOut.Matrix().Data()...)

	// The mutator keeps evicting half the store (SetSeeds) and rebuilding
	// it in small chunks (BuildSeeds → insert bursts) until the readers
	// have assembled enough times that write bursts and read windows
	// genuinely overlap.
	half := len(seeds) / 2
	var scored atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for scored.Load() < readers*150 {
			b.SetSeeds(seeds[:half])
			b.SetSeeds(seeds)
			for lo := half; lo < len(seeds); lo += 8 {
				hi := lo + 8
				if hi > len(seeds) {
					hi = len(seeds)
				}
				if _, err := b.BuildSeeds(seeds[lo:hi]); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				out, _, err := b.DiffuseSignal(query(), diffuse.EngineSync, params, 21)
				if err != nil {
					t.Error(err)
					return
				}
				scored.Add(1)
				// Any interleaving of store states is exact (the residual
				// finish absorbs whatever the snapshot was missing).
				if d := vecmath.MaxAbsDiff(out.Matrix().Data(), want); d > 1e-6 {
					t.Errorf("mid-build scores diverge from the engine by %g (bar 1e-6)", d)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
}

func buildRefAt(t *testing.T, g *graph.Graph, seed uint64, req core.DiffusionRequest) ([][]float64, diffuse.Stats, error) {
	t.Helper()
	net, queries := buildPair(t, g, seed)
	return net.ScoreBatch(queries, req)
}

// TestWalkIndexBudgetSaturation: once insert rejects a segment for the
// byte budget, MissingSeeds must read empty even though unbuilt seeds
// remain — otherwise the Refresher re-diffuses the same block every tick
// and discards it forever. A seed swap (gen bump) reopens the queue.
func TestWalkIndexBudgetSaturation(t *testing.T) {
	g := communityGraph(120, 4)
	net, _ := buildPair(t, g, 3)
	in, err := walkindex.Attach(net, walkindex.Config{Alpha: 0.5, Budget: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	b := in.Backend()
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if c := b.Coverage(); c <= 0 || c >= 1 {
		t.Fatalf("coverage %g, want a budget-starved partial store", c)
	}
	if miss := b.MissingSeeds(0); len(miss) != 0 {
		t.Fatalf("saturated store still offers %d seeds to rebuild", len(miss))
	}
	// The store is saturated below the budget line (no remaining segment
	// fits), so the saturation flag — not the bytes>=budget test — is what
	// empties the queue.
	if b.StoreBytes() >= 4<<10 {
		t.Fatalf("store bytes %d at the budget line; the flag path went untested", b.StoreBytes())
	}
	// A seed swap changes what fits: the queue reopens.
	b.SetSeeds(walkindex.DocSeeds(net))
	if miss := b.MissingSeeds(0); len(miss) == 0 {
		t.Fatal("seed swap did not reopen the rebuild queue")
	}
}

// TestWalkIndexGauges: store accounting moves with builds, seed swaps,
// and budget exhaustion.
func TestWalkIndexGauges(t *testing.T) {
	g := communityGraph(120, 4)
	net, _ := buildPair(t, g, 3)
	in, err := walkindex.Attach(net, walkindex.Config{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b := in.Backend()
	if b.StoreBytes() != 0 || b.Segments() != 0 {
		t.Fatalf("fresh store not empty: %v", b)
	}
	if b.SeedCount() == 0 {
		t.Fatal("no doc seeds found")
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if b.StoreBytes() <= 0 || b.Segments() != b.SeedCount() || b.Coverage() != 1 {
		t.Fatalf("full build accounting wrong: %v", b)
	}
	full := b.StoreBytes()

	// Shrinking the seed set frees its bytes.
	seeds := walkindex.DocSeeds(net)
	b.SetSeeds(seeds[:len(seeds)/2])
	if b.StoreBytes() >= full || b.Segments() != len(seeds)/2 {
		t.Fatalf("seed shrink did not free bytes: %v", b)
	}

	// A starved budget stops building and reports partial coverage.
	net2, _ := buildPair(t, g, 3)
	in2, err := walkindex.Attach(net2, walkindex.Config{Alpha: 0.5, Budget: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in2.Backend().Build(); err != nil {
		t.Fatal(err)
	}
	if in2.Backend().StoreBytes() > 4<<10 {
		t.Fatalf("budget overrun: %v", in2.Backend())
	}
	if c := in2.Backend().Coverage(); c <= 0 || c >= 1 {
		t.Fatalf("starved budget coverage %g, want partial", c)
	}
}
