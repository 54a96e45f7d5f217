package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"diffusearch/internal/graph"
	"diffusearch/internal/randx"
)

// sortedTopByScore is the sort-based selection topByScore replaced, kept as
// the oracle: it scores candidates inside every comparison.
func sortedTopByScore(candidates []graph.NodeID, score func(graph.NodeID) float64, k int) []graph.NodeID {
	ranked := make([]graph.NodeID, len(candidates))
	copy(ranked, candidates)
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := score(ranked[i]), score(ranked[j])
		if si != sj {
			return si > sj
		}
		return ranked[i] < ranked[j]
	})
	if k > len(ranked) {
		k = len(ranked)
	}
	return ranked[:k]
}

// TestTopByScoreMatchesSortOracle checks topByScore against the sort-based
// oracle on seeded candidate sets whose scores tie heavily (four distinct
// values, signed zeros among them), and that each call scores every
// candidate exactly once.
func TestTopByScoreMatchesSortOracle(t *testing.T) {
	levels := []float64{-1, math.Copysign(0, -1), 0, 0.5, 2}
	r := randx.New(47)
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.IntN(40)
		candidates := make([]graph.NodeID, n)
		for i, id := range randx.Sample(r, 200, n) {
			candidates[i] = graph.NodeID(id)
		}
		scores := make(map[graph.NodeID]float64, n)
		for _, v := range candidates {
			scores[v] = levels[r.IntN(len(levels))]
		}
		for _, k := range []int{1, 2, n - 1, n, n + 1} {
			calls := make(map[graph.NodeID]int, n)
			got := topByScore(candidates, func(v graph.NodeID) float64 {
				calls[v]++
				return scores[v]
			}, k)
			want := sortedTopByScore(candidates, func(v graph.NodeID) float64 { return scores[v] }, k)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, k=%d, candidates %v, scores %v:\ngot  %v\nwant %v", trial, k, candidates, scores, got, want)
			}
			for _, v := range candidates {
				if calls[v] != 1 {
					t.Fatalf("trial %d, k=%d: candidate %d scored %d times, want 1", trial, k, v, calls[v])
				}
			}
		}
	}
}
