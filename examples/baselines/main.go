// Baselines: compare the paper's PPR-guided walk against the classic
// unstructured-search baselines (§II-A) — blind random walks and
// TTL-limited flooding — under identical placements, reporting hit rate
// and message cost.
//
//	go run ./examples/baselines
package main

import (
	"fmt"
	"log"

	"diffusearch"
	"diffusearch/internal/core"
	"diffusearch/internal/expt"
)

func main() {
	const seed = 13

	env, err := diffusearch.NewScaledEnvironment(seed, 0.25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d nodes, %d edges; M=100 documents, α=0.5, TTL=50\n\n",
		env.Graph.NumNodes(), env.Graph.NumEdges())

	rows, err := expt.ComparePolicies(env, expt.CompareConfig{
		M: 100, Alpha: 0.5, TTL: 50, Iterations: 40, QueriesPerIter: 5, Seed: seed,
		Variants: []expt.Variant{
			{Name: "ppr-greedy", Policy: core.GreedyPolicy{Fanout: 1}},
			{Name: "ppr-greedy-x4", Policy: core.GreedyPolicy{Fanout: 4}},
			{Name: "epsilon-greedy", Policy: core.EpsilonGreedyPolicy{Fanout: 1, Epsilon: 0.2}},
			{Name: "random-walk", Policy: core.RandomPolicy{Fanout: 1}},
			{Name: "flooding-ttl2", Policy: core.FloodingPolicy{}, TTL: 2},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(expt.FormatCompare(rows))
	msgs := make(map[string]float64, len(rows))
	for _, row := range rows {
		msgs[row.Name] = row.MeanMessages
	}
	fmt.Println("The diffusion-guided walk beats the blind walk at equal message cost;")
	fmt.Printf("flooding reaches everything nearby but pays %.1f× the greedy walk's\n",
		msgs["flooding-ttl2"]/msgs["ppr-greedy"])
	fmt.Println("messages — the §II-A scalability argument for informed search.")
}
