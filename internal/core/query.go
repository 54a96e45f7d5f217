package core

import (
	"fmt"
	"slices"

	"diffusearch/internal/graph"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/sim"
)

// VisitedMode selects how visited nodes are avoided during forwarding — an
// ablation axis around the privacy trade-off of §IV-C.
type VisitedMode int

const (
	// VisitedNodeMemory is the paper's scheme: each node remembers, per
	// query, the neighbours it received the query from and sent it to, and
	// excludes them from candidates. Connection privacy is preserved.
	VisitedNodeMemory VisitedMode = iota + 1
	// VisitedInMessage records visited nodes in the query message itself —
	// the "slightly more efficient" alternative the paper rejects for
	// privacy reasons.
	VisitedInMessage
	// VisitedNone performs no avoidance: a pure embedding-biased walk.
	VisitedNone
)

// String implements fmt.Stringer.
func (m VisitedMode) String() string {
	switch m {
	case VisitedNodeMemory:
		return "node-memory"
	case VisitedInMessage:
		return "in-message"
	case VisitedNone:
		return "none"
	default:
		return fmt.Sprintf("VisitedMode(%d)", int(m))
	}
}

// Valid reports whether m is a known mode.
func (m VisitedMode) Valid() bool {
	return m == VisitedNodeMemory || m == VisitedInMessage || m == VisitedNone
}

// QueryConfig controls one query execution. Candidates are scored from
// Scores when it is set, otherwise from the network's diffused embeddings
// (Network.Run), each node at most once per query.
type QueryConfig struct {
	TTL     int         // maximum hops (paper: 50)
	K       int         // tracked results (paper: top-1); 0 means 1
	Policy  Policy      // nil means GreedyPolicy{Fanout: 1}
	Visited VisitedMode // 0 means VisitedNodeMemory
	Seed    uint64      // drives policy randomness and latencies

	// Latency is the per-message delay model; nil means constant 1 (hops
	// and simulated time coincide for single walks).
	Latency sim.LatencyModel

	// Scores, when non-nil, holds one precomputed relevance score per node,
	// e.g. a ScoreBatch column shared by many origins of the same query.
	Scores []float64
}

func (c QueryConfig) withDefaults() QueryConfig {
	if c.K <= 0 {
		c.K = 1
	}
	if c.Policy == nil {
		c.Policy = GreedyPolicy{Fanout: 1}
	}
	if c.Visited == 0 {
		c.Visited = VisitedNodeMemory
	}
	if c.Latency == nil {
		c.Latency = sim.ConstantLatency(1)
	}
	return c
}

// QueryOutcome reports one finished query.
type QueryOutcome struct {
	Origin       graph.NodeID
	Gold         retrieval.DocID
	Found        bool               // gold present in the merged results
	HopsToGold   int                // hops until a message reached gold's host (-1 when never)
	HopsTraveled int                // total query-message hops across branches
	Messages     int                // query messages + response messages
	Visited      int                // distinct nodes that processed the query
	Results      []retrieval.Result // merged top-k at the origin
	Duration     float64            // simulated time until the origin held all responses
}

// queryMsg is the in-flight query message of Fig. 1. Results are carried in
// the message (per §IV-C). In the VisitedInMessage ablation the message
// also carries the visited set; every branch shares that one set, so it is
// exactly the set of nodes holding a query state, and the walk reads it
// from there.
type queryMsg struct {
	ttl     int
	depth   int
	results *retrieval.TopK
}

// nodeQueryState is the per-query protocol memory a node keeps in the
// paper's scheme. A walk passes a node only a few times, so the neighbour
// lists stay short and are searched linearly.
type nodeQueryState struct {
	parent       graph.NodeID   // first neighbour we received the query from (-1 at origin)
	receivedFrom []graph.NodeID // distinct neighbours the query arrived from
	sentTo       []graph.NodeID // distinct neighbours the query was forwarded to
}

// RunQuery executes one decentralized search from origin for the given
// query embedding and gold document, returning its outcome. gold may be -1
// (unknown) in which case Found/HopsToGold refer to nothing and stay
// false/-1.
func (n *Network) RunQuery(origin graph.NodeID, query []float64, gold retrieval.DocID, cfg QueryConfig) (QueryOutcome, error) {
	cfg = cfg.withDefaults()
	if origin < 0 || origin >= n.g.NumNodes() {
		return QueryOutcome{}, fmt.Errorf("core: origin %d out of range", origin)
	}
	if cfg.TTL < 0 {
		return QueryOutcome{}, fmt.Errorf("core: negative TTL %d", cfg.TTL)
	}
	if !cfg.Visited.Valid() {
		return QueryOutcome{}, fmt.Errorf("core: invalid visited mode %d", int(cfg.Visited))
	}

	// Candidate scoring: precomputed, or diffused embeddings scored lazily
	// into a per-query memo, since successive hops share neighbours.
	var score func(graph.NodeID) float64
	if cfg.Scores != nil {
		if len(cfg.Scores) != n.g.NumNodes() {
			return QueryOutcome{}, fmt.Errorf("core: %d scores for %d nodes", len(cfg.Scores), n.g.NumNodes())
		}
		s := cfg.Scores
		score = func(v graph.NodeID) float64 { return s[v] }
	} else {
		if n.emb == nil {
			return QueryOutcome{}, ErrNotDiffused
		}
		memo, have := make([]float64, n.g.NumNodes()), make([]bool, n.g.NumNodes())
		score = func(v graph.NodeID) float64 {
			if !have[v] {
				memo[v], have[v] = n.scorer.Score(query, n.emb.Row(v)), true
			}
			return memo[v]
		}
	}

	var (
		sched       sim.Scheduler
		r           = randx.Derive(cfg.Seed, "query")
		states      []nodeQueryState                // in visit order
		stateIndex  = make([]int32, n.g.NumNodes()) // node → 1 + its index in states; 0 when unvisited
		outcome     = QueryOutcome{Origin: origin, Gold: gold, HopsToGold: -1}
		outstanding = 0 // response chains the origin still waits for
		goldHost    = -1
	)
	if gold >= 0 {
		goldHost = n.HostOf(gold)
	}
	merged := retrieval.NewTopK(cfg.K)

	// stateOf returns u's query state, creating it on u's first visit. The
	// pointer is valid until the next state is created.
	stateOf := func(u graph.NodeID) *nodeQueryState {
		if stateIndex[u] == 0 {
			states = append(states, nodeQueryState{parent: -1})
			stateIndex[u] = int32(len(states))
		}
		return &states[stateIndex[u]-1]
	}

	// respond walks the response back toward the origin along parent
	// pointers, one message per hop (§IV-C backtracking).
	var respond func(at graph.NodeID, results *retrieval.TopK)
	respond = func(at graph.NodeID, results *retrieval.TopK) {
		if at == origin {
			merged.Merge(results)
			outstanding--
			return
		}
		parent := stateOf(at).parent
		outcome.Messages++
		sched.After(cfg.Latency.Sample(r), func() { respond(parent, results) })
	}

	// process implements the Fig. 1 state machine at node u.
	var process func(u, from graph.NodeID, msg *queryMsg)
	process = func(u, from graph.NodeID, msg *queryMsg) {
		st := stateOf(u)
		if from >= 0 {
			if !slices.Contains(st.receivedFrom, from) {
				st.receivedFrom = append(st.receivedFrom, from)
			}
			if st.parent < 0 {
				st.parent = from
			}
		}

		// Step 2: check local documents.
		n.LocalSearch(u, msg.results, query)
		if u == goldHost && outcome.HopsToGold < 0 {
			outcome.HopsToGold = msg.depth
		}

		// Step 3: decrement TTL; step 4b/5b: discard and notify source.
		msg.ttl--
		if msg.ttl < 0 {
			respond(u, msg.results)
			return
		}

		// Step 4a: find next hops among unvisited neighbours.
		neighbors := n.g.Neighbors(u)
		candidates := make([]graph.NodeID, 0, len(neighbors))
		for _, v := range neighbors {
			switch cfg.Visited {
			case VisitedNodeMemory:
				if slices.Contains(st.receivedFrom, v) || slices.Contains(st.sentTo, v) {
					continue
				}
			case VisitedInMessage:
				if stateIndex[v] != 0 {
					continue
				}
			}
			candidates = append(candidates, v)
		}
		// Footnote 9: when every neighbour was visited, consider them all
		// rather than wasting the forwarding opportunity.
		if len(candidates) == 0 {
			candidates = append(candidates, neighbors...)
		}
		if len(candidates) == 0 { // isolated node: nothing to forward to
			respond(u, msg.results)
			return
		}

		targets := cfg.Policy.Select(msg.depth, candidates, score, r)
		if len(targets) == 0 {
			respond(u, msg.results)
			return
		}
		// Step 5a: forward. Branching clones the message (parallel walks).
		for i, v := range targets {
			if !slices.Contains(st.sentTo, v) {
				st.sentTo = append(st.sentTo, v)
			}
			next := &queryMsg{ttl: msg.ttl, depth: msg.depth + 1, results: msg.results}
			if i > 0 {
				next.results = msg.results.Clone()
				outstanding++
			}
			outcome.Messages++
			outcome.HopsTraveled++
			target := v
			m := next
			sched.After(cfg.Latency.Sample(r), func() { process(target, u, m) })
		}
	}

	first := &queryMsg{ttl: cfg.TTL, depth: 0, results: retrieval.NewTopK(cfg.K)}
	outstanding = 1
	process(origin, -1, first)
	sched.Run()
	if outstanding != 0 {
		return QueryOutcome{}, fmt.Errorf("core: %d response chains never reached the origin", outstanding)
	}

	outcome.Duration = sched.Now()
	outcome.Visited = len(states)
	outcome.Results = merged.Results()
	if gold >= 0 {
		for _, res := range outcome.Results {
			if res.Doc == gold {
				outcome.Found = true
				break
			}
		}
	}
	// Reaching the gold host without the gold entering the top-k (possible
	// for k > 1 with strong distractors) does not count as success.
	if !outcome.Found {
		outcome.HopsToGold = -1
	}
	return outcome, nil
}
