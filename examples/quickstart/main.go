// Quickstart: build a small P2P network, place documents, diffuse node
// embeddings with Personalized PageRank, and run one embedding-guided
// search walk.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"diffusearch"
)

func main() {
	const seed = 42

	// 1. A scaled-down evaluation setting: a social-style topology plus a
	//    synthetic embedding vocabulary with mined query/gold pairs.
	env, err := diffusearch.NewScaledEnvironment(seed, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	g := env.Graph
	fmt.Printf("topology: %d nodes, %d edges (avg degree %.1f)\n",
		g.NumNodes(), g.NumEdges(), g.AverageDegree())

	// 2. Place one gold document and 29 irrelevant ones uniformly (the
	//    paper's Fig. 2 pipeline).
	net := diffusearch.NewNetwork(g, env.Bench.Vocabulary())
	r := diffusearch.NewRand(seed)
	pair := env.Bench.SamplePair(r)
	docs := append([]diffusearch.DocID{pair.Gold}, env.Bench.SamplePool(r, 29)...)
	if err := net.PlaceDocuments(docs, diffusearch.UniformHosts(r, len(docs), g.NumNodes())); err != nil {
		log.Fatal(err)
	}

	// 3. Summarize collections into personalization vectors (eq. 3) and
	//    diffuse them with one DiffusionRequest (§IV-B). The zero-value
	//    engine is the residual-driven parallel engine; set Engine to
	//    diffusearch.EngineAsynchronous or EngineSync for the references.
	if err := net.ComputePersonalization(); err != nil {
		log.Fatal(err)
	}
	st, err := net.Run(diffusearch.DiffusionRequest{Alpha: 0.5, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("diffusion: converged after %d sweeps, %d embedding exchanges\n", st.Sweeps, st.Messages)

	// 4. Search: a biased walk guided by the diffused embeddings (Fig. 1).
	goldHost := net.HostOf(pair.Gold)
	origins := g.NodesAtDistance(goldHost, 2)
	origin := goldHost
	if len(origins[2]) > 0 {
		origin = origins[2][0] // start two hops from the gold document
	}
	query := env.Bench.Vocabulary().Vector(pair.Query)
	out, err := net.RunQuery(origin, query, pair.Gold,
		diffusearch.QueryConfig{TTL: 50, K: 3, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query from node %d (gold at node %d):\n", origin, goldHost)
	if out.Found {
		fmt.Printf("  found the gold document after %d hops (visited %d nodes, %d messages)\n",
			out.HopsToGold, out.Visited, out.Messages)
	} else {
		fmt.Printf("  walk expired without finding the gold (visited %d nodes)\n", out.Visited)
	}
	for i, res := range out.Results {
		fmt.Printf("  %d. %s (score %.4f)\n", i+1, env.Bench.Vocabulary().Word(res.Doc), res.Score)
	}

	// 5. Batch scoring: ScoreBatch diffuses one multi-column relevance
	//    signal for a whole query batch (here the same query three times,
	//    standing in for three concurrent users) and returns per-query
	//    score slices that walks can share via QueryConfig.Scores.
	scores, bst, err := net.ScoreBatch([][]float64{query, query, query},
		diffusearch.DiffusionRequest{Alpha: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch scoring: %d queries in %d rounds, %.0f messages per query\n",
		len(scores), bst.Sweeps, float64(bst.Messages)/float64(len(scores)))
	shared, err := net.RunQuery(origin, query, pair.Gold,
		diffusearch.QueryConfig{TTL: 50, K: 3, Seed: seed, Scores: scores[0]})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch-scored walk found gold: %v\n", shared.Found)

	// 6. Serving under load: a Scheduler assembles batches from live
	//    traffic — concurrent Submit calls coalesce into one diffusion
	//    under the MaxWait latency budget, and repeats hit the LRU cache.
	//    (Here three goroutines stand in for three concurrent clients.)
	sched, err := diffusearch.NewScheduler(net, diffusearch.ServeConfig{
		Request: diffusearch.DiffusionRequest{Alpha: 0.5},
		MaxWait: 2 * time.Millisecond,
		Cache:   64,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sched.Close()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sched.Submit(context.Background(), query); err != nil {
				log.Fatal(err)
			}
		}()
	}
	wg.Wait()
	sst := sched.Stats()
	fmt.Printf("scheduler: %d queries served by %d diffusion(s), cache hit rate %.2f\n",
		sst.Completed+sst.CacheHits, sst.Batches, sst.CacheHitRate())

	// 7. Priority classes: one Bulk prewarm rides along with Interactive
	//    queries. The Bulk submission volunteers to wait (it wants width,
	//    not latency); the Interactive queries jump the coalesce window —
	//    with a deadline, a query the scheduler cannot dispatch in time is
	//    shed (ErrDeadlineMissed), never scored late.
	prewarm := env.Bench.Vocabulary().Vector(env.Bench.SamplePair(r).Query)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := sched.SubmitWith(context.Background(), prewarm,
			diffusearch.SubmitOpts{Class: diffusearch.ClassBulk}); err != nil {
			log.Fatal(err)
		}
	}()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sched.SubmitWith(context.Background(), query, diffusearch.SubmitOpts{
				Class:    diffusearch.ClassInteractive,
				Deadline: time.Now().Add(5 * time.Second),
			})
			if err != nil {
				log.Fatal(err)
			}
		}()
	}
	wg.Wait()
	pst := sched.Stats()
	fmt.Printf("priority: interactive wait p99 %v, bulk wait p99 %v, %d deadline miss(es)\n",
		pst.ClassWait[diffusearch.ClassInteractive].P99,
		pst.ClassWait[diffusearch.ClassBulk].P99, pst.DeadlineMissed)

	// 8. Observability: one MetricsRegistry collects every layer — the
	//    stock diffusion observer turns per-sweep convergence stats into
	//    histograms (observed runs stay bit-identical to bare ones), and
	//    a scheduler trace hook counts resolutions by path — and serves
	//    it the way `peerd -admin` does: /metrics in Prometheus text
	//    plus /statusz as a JSON status snapshot.
	reg := diffusearch.NewMetricsRegistry()
	obsReq := diffusearch.DiffusionRequest{
		Alpha: 0.5, Observer: diffusearch.NewDiffusionMetrics(reg),
	}
	counters := make(map[diffusearch.TracePath]interface{ Inc() })
	for _, p := range diffusearch.TracePaths {
		counters[p] = reg.Counter("quickstart_queries_total",
			"Resolved queries by path.", "path", string(p))
	}
	obsSched, err := diffusearch.NewScheduler(net, diffusearch.ServeConfig{
		Request: obsReq, Cache: 8,
		OnTrace: func(t diffusearch.ServeTrace) { counters[t.Path].Inc() },
	})
	if err != nil {
		log.Fatal(err)
	}
	defer obsSched.Close()
	for i := 0; i < 2; i++ { // the second submit is a cache hit
		if _, err := obsSched.Submit(context.Background(), query); err != nil {
			log.Fatal(err)
		}
	}

	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]diffusearch.ServeStats{
			"local": obsSched.Stats(),
		})
	})
	admin := httptest.NewServer(mux)
	defer admin.Close()

	resp, err := http.Get(admin.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	exposition, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(string(exposition), "\n") {
		if strings.HasPrefix(line, "diffusearch_diffusion_sweeps_total") ||
			strings.HasPrefix(line, `quickstart_queries_total{path="cache_hit"`) ||
			strings.HasPrefix(line, `quickstart_queries_total{path="scored"`) {
			fmt.Println("  " + line)
		}
	}
	resp, err = http.Get(admin.URL + "/statusz")
	if err != nil {
		log.Fatal(err)
	}
	var status map[string]diffusearch.ServeStats
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("statusz: local scheduler resolved %d submissions (%d from cache)\n",
		status["local"].Completed+status["local"].CacheHits, status["local"].CacheHits)

	// 9. Routed fan-out: each peer gossips a compact bloom summary of its
	//    document holdings piggybacked on the embed messages, and a
	//    forwarded query carries doc-term keys mined from its embedding.
	//    Every hop consults its cached neighbour summaries — steering to
	//    the best-scoring filter hit, falling back to plain greedy when
	//    every candidate misses, and answering early when the walk
	//    already tracks its primary key document and no fresh filter can
	//    extend it. The deterministic protocol harness below runs the
	//    exact peer logic without goroutines or clocks, so routed vs
	//    unrouted costs compare on identical walks.
	adj := make([][]diffusearch.NodeID, g.NumNodes())
	for u := range adj {
		adj[u] = g.Neighbors(u)
	}
	placement := make(map[diffusearch.NodeID][]diffusearch.DocID, len(docs))
	for _, d := range docs {
		placement[net.HostOf(d)] = append(placement[net.HostOf(d)], d)
	}
	sim, err := diffusearch.NewSimNetwork(diffusearch.SimNetworkConfig{
		Neighbors: adj, Vocab: env.Bench.Vocabulary(), Docs: placement,
		Alpha: 0.5, Seed: seed,
		Filter: diffusearch.PeerFilterConfig{Bits: 1024, Hashes: 4, QueryKeys: 8},
	})
	if err != nil {
		log.Fatal(err)
	}
	rounds, converged := sim.Converge(300)
	if !converged {
		log.Fatal("gossip did not quiesce")
	}
	// The workload's query words are never placed as documents, so drop
	// the query's own word (trivially its nearest neighbour) from the
	// mined keys before routing.
	rawKeys := diffusearch.MineQueryKeys(env.Bench.Vocabulary(), query, diffusearch.CosineSim, 9)
	keys := make([]diffusearch.DocID, 0, 8)
	for _, d := range rawKeys {
		if d != pair.Query {
			keys = append(keys, d)
		}
	}
	unrouted := sim.RunQuery(origin, query, nil, 50, 3)
	routed := sim.RunQuery(origin, query, keys, 50, 3)
	fmt.Printf("routed fan-out: filters gossiped in %d rounds; unrouted walk %d messages, routed %d (%d filter hits, early stop %v)\n",
		rounds, unrouted.Messages, routed.Messages, routed.FilterHits, routed.EarlyStop)
}
