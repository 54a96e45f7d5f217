// Command dfsearch runs one end-to-end decentralized search demo: generate
// the network and corpus, place documents, diffuse embeddings with the
// selected PPR engine, then walk a query and print the trace.
//
// Usage:
//
//	dfsearch -nodes 1000 -docs 500 -alpha 0.5 -ttl 50 -seed 42 -engine parallel
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"diffusearch"
)

func main() {
	var (
		nodes   = flag.Int("nodes", 1000, "P2P network size")
		docs    = flag.Int("docs", 500, "documents stored in the network (1 gold + rest irrelevant)")
		alpha   = flag.Float64("alpha", 0.5, "PPR teleport probability")
		ttl     = flag.Int("ttl", 50, "query hop budget")
		seed    = flag.Uint64("seed", 42, "master seed")
		k       = flag.Int("k", 3, "tracked results per query")
		engine  = flag.String("engine", "parallel", "diffusion engine: async|parallel|sync|gs")
		workers = flag.Int("workers", 0, "parallel engine pool size (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if err := run(*nodes, *docs, *alpha, *ttl, *seed, *k, *engine, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "dfsearch:", err)
		os.Exit(1)
	}
}

func run(nodes, docs int, alpha float64, ttl int, seed uint64, k int, engine string, workers int) error {
	eng, err := diffusearch.ParseEngine(engine)
	if err != nil {
		return err
	}
	scale := float64(nodes) / 4039
	env, err := diffusearch.NewScaledEnvironment(seed, scale)
	if err != nil {
		return err
	}
	g := env.Graph
	fmt.Printf("network: %d nodes, %d edges (avg degree %.1f)\n", g.NumNodes(), g.NumEdges(), g.AverageDegree())

	if docs > env.MaxPoolDocs() {
		return fmt.Errorf("docs %d exceeds pool capacity %d", docs, env.MaxPoolDocs())
	}
	net := diffusearch.NewNetwork(g, env.Bench.Vocabulary())
	r := diffusearch.NewRand(seed)
	pair := env.Bench.SamplePair(r)
	all := append([]diffusearch.DocID{pair.Gold}, env.Bench.SamplePool(r, docs-1)...)
	if err := net.PlaceDocuments(all, diffusearch.UniformHosts(r, len(all), g.NumNodes())); err != nil {
		return err
	}
	if err := net.ComputePersonalization(); err != nil {
		return err
	}

	start := time.Now()
	st, err := net.Run(diffusearch.DiffusionRequest{
		Engine: eng, Alpha: alpha, Workers: workers, Seed: seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("diffusion: engine=%v α=%.2f converged after %d sweeps, %d embedding exchanges (%v)\n",
		eng, alpha, st.Sweeps, st.Messages, time.Since(start).Round(time.Millisecond))

	goldHost := net.HostOf(pair.Gold)
	query := env.Bench.Vocabulary().Vector(pair.Query)
	fmt.Printf("query %q, gold document %q stored at node %d\n",
		env.Bench.Vocabulary().Word(pair.Query), env.Bench.Vocabulary().Word(pair.Gold), goldHost)

	// Walk from several distances away from the gold host.
	groups := g.NodesAtDistance(goldHost, 5)
	for d := 0; d <= 5; d++ {
		if len(groups[d]) == 0 {
			continue
		}
		origin := groups[d][r.IntN(len(groups[d]))]
		out, err := net.RunQuery(origin, query, pair.Gold, diffusearch.QueryConfig{TTL: ttl, K: k, Seed: seed})
		if err != nil {
			return err
		}
		status := "MISS"
		if out.Found {
			status = fmt.Sprintf("HIT after %d hops", out.HopsToGold)
		}
		fmt.Printf("  from node %4d (distance %d): %-18s visited %2d nodes, %3d messages\n",
			origin, d, status, out.Visited, out.Messages)
	}
	return nil
}
