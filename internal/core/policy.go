package core

import (
	"sort"

	"diffusearch/internal/graph"
	"diffusearch/internal/randx"
)

// Policy decides which candidate neighbours a node forwards a query to
// (§IV-C: "select a few neighbors with the highest score. When a single
// neighbor is selected, the outcome is a simple random walk, otherwise,
// multiple walks are executed in parallel").
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Select returns the forwarding targets, a non-empty subset of
	// candidates (candidates is never empty). depth is the hop distance of
	// the selecting node from the query origin — walk-style policies fan
	// out only at depth 0 so that message cost stays linear in TTL, while
	// flooding fans out everywhere. score gives the diffused relevance of
	// each candidate; r supplies the policy's randomness.
	Select(depth int, candidates []graph.NodeID, score func(graph.NodeID) float64, r *randx.Rand) []graph.NodeID
}

// GreedyPolicy forwards to the highest-scoring candidates, equal scores
// going to the lower node id: the paper's embedding-guided biased walk.
// Each candidate is scored once per hop. Fanout > 1 spawns that many
// parallel walks at the origin (§V-B future work); each walk continues
// greedily with fanout 1.
type GreedyPolicy struct {
	Fanout int // walks spawned at the origin; ≤ 0 treated as 1
}

var _ Policy = GreedyPolicy{}

// Name implements Policy.
func (p GreedyPolicy) Name() string { return "greedy" }

// Select implements Policy.
func (p GreedyPolicy) Select(depth int, candidates []graph.NodeID, score func(graph.NodeID) float64, _ *randx.Rand) []graph.NodeID {
	return topByScore(candidates, score, originFanout(depth, p.Fanout))
}

// RandomPolicy forwards to uniformly chosen candidates — the blind random
// walk baseline of §II-A. Fanout > 1 spawns parallel blind walks at the
// origin.
type RandomPolicy struct {
	Fanout int // walks spawned at the origin; ≤ 0 treated as 1
}

var _ Policy = RandomPolicy{}

// Name implements Policy.
func (p RandomPolicy) Name() string { return "random" }

// Select implements Policy.
func (p RandomPolicy) Select(depth int, candidates []graph.NodeID, _ func(graph.NodeID) float64, r *randx.Rand) []graph.NodeID {
	fanout := originFanout(depth, p.Fanout)
	if fanout >= len(candidates) {
		out := make([]graph.NodeID, len(candidates))
		copy(out, candidates)
		return out
	}
	idx := randx.Sample(r, len(candidates), fanout)
	out := make([]graph.NodeID, fanout)
	for i, j := range idx {
		out[i] = candidates[j]
	}
	return out
}

// FloodingPolicy forwards to every candidate at every hop — the Gnutella
// baseline of §II-A. Message cost grows exponentially with TTL; use small
// TTLs.
type FloodingPolicy struct{}

var _ Policy = FloodingPolicy{}

// Name implements Policy.
func (FloodingPolicy) Name() string { return "flooding" }

// Select implements Policy.
func (FloodingPolicy) Select(_ int, candidates []graph.NodeID, _ func(graph.NodeID) float64, _ *randx.Rand) []graph.NodeID {
	out := make([]graph.NodeID, len(candidates))
	copy(out, candidates)
	return out
}

// EpsilonGreedyPolicy behaves like GreedyPolicy but explores a uniformly
// random candidate with probability Epsilon at every hop — a softening
// knob for the exploration/exploitation trade-off discussed in §V-C.
type EpsilonGreedyPolicy struct {
	Fanout  int
	Epsilon float64
}

var _ Policy = EpsilonGreedyPolicy{}

// Name implements Policy.
func (EpsilonGreedyPolicy) Name() string { return "epsilon-greedy" }

// Select implements Policy.
func (p EpsilonGreedyPolicy) Select(depth int, candidates []graph.NodeID, score func(graph.NodeID) float64, r *randx.Rand) []graph.NodeID {
	if r.Float64() < p.Epsilon {
		return RandomPolicy{Fanout: p.Fanout}.Select(depth, candidates, score, r)
	}
	return GreedyPolicy{Fanout: p.Fanout}.Select(depth, candidates, score, r)
}

// originFanout maps a configured fanout to the effective one at this depth:
// parallel walks branch at the origin only.
func originFanout(depth, fanout int) int {
	if fanout <= 0 {
		fanout = 1
	}
	if depth > 0 {
		return 1
	}
	return fanout
}

// topByScore returns the k highest-scoring candidates, higher score first
// and equal scores by lower node id. It scores each candidate exactly once:
// k == 1 (every hop past the origin) is one linear argmax, and k > 1 sorts
// (node, score) pairs.
func topByScore(candidates []graph.NodeID, score func(graph.NodeID) float64, k int) []graph.NodeID {
	if k == 1 && len(candidates) > 0 {
		best, top := candidates[0], score(candidates[0])
		for _, v := range candidates[1:] {
			if s := score(v); s > top || (s == top && v < best) {
				best, top = v, s
			}
		}
		return []graph.NodeID{best}
	}
	type scored struct {
		v graph.NodeID
		s float64
	}
	ranked := make([]scored, len(candidates))
	for i, v := range candidates {
		ranked[i] = scored{v, score(v)}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].s != ranked[j].s {
			return ranked[i].s > ranked[j].s
		}
		return ranked[i].v < ranked[j].v
	})
	out := make([]graph.NodeID, min(k, len(ranked)))
	for i := range out {
		out[i] = ranked[i].v
	}
	return out
}
