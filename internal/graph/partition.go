package graph

import (
	"fmt"
	"sort"

	"diffusearch/internal/vecmath"
)

// Partitioner splits a graph's node set into k shards. Partitions are
// edge-cut: every node is owned by exactly one shard and edges whose
// endpoints land in different shards become boundary edges, the cross-shard
// residual traffic of a sharded diffusion. The two implementations trade
// locality against balance:
//
//   - RangePartitioner keeps contiguous node-id ranges together. Generators
//     number socially close nodes nearby, so ranges keep most pushes
//     shard-local, but a degree-skewed graph can leave one shard owning most
//     of the edge volume.
//   - GreedyPartitioner balances edge volume: nodes are assigned in
//     descending degree order to the currently lightest shard. Shards get
//     near-equal work per sweep at the price of more boundary edges.
type Partitioner interface {
	// Partition assigns the nodes of g to k shards. k is clamped to
	// [1, NumNodes] (an empty graph yields one empty shard).
	Partition(g *Graph, k int) *Partition
	// String names the strategy for tables and CLI flags.
	String() string
}

// ParsePartitioner maps a command-line name to a Partitioner.
func ParsePartitioner(s string) (Partitioner, error) {
	switch s {
	case "range":
		return RangePartitioner{}, nil
	case "greedy":
		return GreedyPartitioner{}, nil
	}
	return nil, fmt.Errorf("graph: unknown partitioner %q (want range|greedy)", s)
}

// Partition is a node→shard assignment with both lookup directions
// materialized: ShardOf/LocalOf map a global node to its owner shard and
// its compact index there, Nodes maps back.
type Partition struct {
	shardOf []int      // node -> owner shard
	localOf []int      // node -> index within the owner's Nodes list
	nodes   [][]NodeID // shard -> owned global ids, ascending
}

// NumShards returns k.
func (p *Partition) NumShards() int { return len(p.nodes) }

// ShardOf returns the shard owning node u.
func (p *Partition) ShardOf(u NodeID) int { return p.shardOf[u] }

// LocalOf returns u's compact index within its owner shard.
func (p *Partition) LocalOf(u NodeID) int { return p.localOf[u] }

// Nodes returns the ascending global ids owned by shard s. The slice
// aliases internal storage and must not be mutated.
func (p *Partition) Nodes(s int) []NodeID { return p.nodes[s] }

// newPartition finalizes a shardOf assignment into a Partition.
func newPartition(n int, shardOf []int, k int) *Partition {
	p := &Partition{shardOf: shardOf, localOf: make([]int, n), nodes: make([][]NodeID, k)}
	for u := 0; u < n; u++ {
		s := shardOf[u]
		p.localOf[u] = len(p.nodes[s])
		p.nodes[s] = append(p.nodes[s], u)
	}
	return p
}

func clampShards(n, k int) int {
	if k < 1 || n == 0 {
		k = 1
	}
	if k > n && n > 0 {
		k = n
	}
	return k
}

// RangePartitioner assigns contiguous node-id ranges, with boundaries
// chosen on the CSR volume prefix so each shard owns ≈2|E|/k edge endpoints
// (a plain n/k node split would hand a degree-skewed prefix all the work).
type RangePartitioner struct{}

// String implements Partitioner.
func (RangePartitioner) String() string { return "range" }

// Partition implements Partitioner.
func (RangePartitioner) Partition(g *Graph, k int) *Partition {
	n := g.NumNodes()
	k = clampShards(n, k)
	shardOf := make([]int, n)
	total := 2 * g.NumEdges()
	acc := 0
	s := 0
	for u := 0; u < n; u++ {
		// Advance to the next shard once this one's endpoint share is met,
		// keeping at least one node per remaining shard; force a boundary
		// when exactly one node per remaining shard is left.
		if s < k-1 && acc >= (s+1)*total/k && n-u > k-1-s {
			s++
		}
		if rem := k - 1 - s; rem > 0 && n-u == rem {
			s++
		}
		shardOf[u] = s
		acc += g.Degree(u)
	}
	return newPartition(n, shardOf, k)
}

// GreedyPartitioner assigns nodes in descending degree order to the shard
// with the smallest accumulated degree sum (longest-processing-time
// scheduling), so shards carry near-equal per-sweep edge work even on
// hub-heavy graphs. Ties break toward the lower shard id, which keeps the
// result deterministic.
type GreedyPartitioner struct{}

// String implements Partitioner.
func (GreedyPartitioner) String() string { return "greedy" }

// Partition implements Partitioner.
func (GreedyPartitioner) Partition(g *Graph, k int) *Partition {
	n := g.NumNodes()
	k = clampShards(n, k)
	order := make([]NodeID, n)
	for u := range order {
		order[u] = u
	}
	sort.SliceStable(order, func(i, j int) bool {
		return g.Degree(order[i]) > g.Degree(order[j])
	})
	load := make([]int, k)
	count := make([]int, k)
	shardOf := make([]int, n)
	empties := k
	for assigned, u := range order {
		best := 0
		for s := 1; s < k; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		// Never leave a shard empty: once only as many unassigned nodes
		// remain as empty shards, route to an empty one.
		if n-assigned <= empties && count[best] > 0 {
			for s := 0; s < k; s++ {
				if count[s] == 0 {
					best = s
					break
				}
			}
		}
		shardOf[u] = best
		load[best] += g.Degree(u)
		if count[best] == 0 {
			empties--
		}
		count[best]++
	}
	return newPartition(n, shardOf, k)
}

// TransitionShard is one shard's slice of a Transition: the CSR rows of its
// owned nodes copied into contiguous per-shard arrays (rebased offsets,
// original neighbor order and weights), plus the boundary-edge count that
// sizes the shard's cross-shard exchange. Because rows are copied whole —
// local and remote neighbors interleaved exactly as in the full CSR — the
// shard kernels sum each row in the identical floating-point order, so a
// sharded diffusion reproduces the single-CSR result bit for bit.
type TransitionShard struct {
	id        int
	nodes     []NodeID  // owned global ids, ascending
	offsets   []int     // rebased: row i of this shard is nodes[i]
	neighbors []NodeID  // global ids, original CSR row order
	weights   []float64 // aligned with neighbors
	cross     int       // entries whose neighbor lives in another shard
}

// ID returns the shard's index within its ShardSet.
func (t *TransitionShard) ID() int { return t.id }

// Len returns the number of owned nodes.
func (t *TransitionShard) Len() int { return len(t.nodes) }

// Node returns the global id of local row i.
func (t *TransitionShard) Node(i int) NodeID { return t.nodes[i] }

// Nodes returns the owned global ids (ascending). The slice aliases
// internal storage and must not be mutated.
func (t *TransitionShard) Nodes() []NodeID { return t.nodes }

// Neighbors returns the global neighbor ids of local row i, in the full
// CSR's order. The slice aliases internal storage and must not be mutated.
func (t *TransitionShard) Neighbors(i int) []NodeID {
	return t.neighbors[t.offsets[i]:t.offsets[i+1]:t.offsets[i+1]]
}

// Weights returns the edge weights of local row i, aligned with
// Neighbors(i). The slice aliases internal storage and must not be mutated.
func (t *TransitionShard) Weights(i int) []float64 {
	return t.weights[t.offsets[i]:t.offsets[i+1]:t.offsets[i+1]]
}

// RowStart returns the offset of local row i into the shard's edge arrays
// (the index space of per-edge diffusion state such as push thresholds).
func (t *TransitionShard) RowStart(i int) int { return t.offsets[i] }

// NumEntries returns the total CSR entries (directed edges) of the shard.
func (t *TransitionShard) NumEntries() int { return len(t.neighbors) }

// CrossEntries returns how many of the shard's CSR entries reference a
// node owned by another shard (directed boundary edges).
func (t *TransitionShard) CrossEntries() int { return t.cross }

// ApplyRow accumulates coeff · Σ_v A[u][v] · src[v] into dst for local row
// i, exactly as Transition.ApplyRow does for the global row (same kernel,
// same edge order, bit-identical sums). src is indexed by global node id.
func (t *TransitionShard) ApplyRow(dst []float64, i int, coeff float64, src *vecmath.Matrix) {
	if len(dst) != src.Cols() {
		panic(fmt.Sprintf("graph: shard ApplyRow width mismatch dst=%d src=%d", len(dst), src.Cols()))
	}
	start, end := t.offsets[i], t.offsets[i+1]
	applyRowKernel(dst, coeff, t.neighbors[start:end], t.weights[start:end], src)
}

// ApplyRowAffine computes dst = tele·e0row + coeff · Σ_v A[u][v] · src[v]
// for local row i through the same kernel entry as
// Transition.ApplyRowAffine, bit-identical to it on the corresponding
// global row.
func (t *TransitionShard) ApplyRowAffine(dst []float64, i int, coeff float64, src *vecmath.Matrix, tele float64, e0row []float64) {
	if len(dst) != src.Cols() || len(e0row) != len(dst) {
		panic(fmt.Sprintf("graph: shard ApplyRowAffine width mismatch dst=%d e0=%d src=%d", len(dst), len(e0row), src.Cols()))
	}
	start, end := t.offsets[i], t.offsets[i+1]
	applyRowAffine(dst, coeff, t.neighbors[start:end], t.weights[start:end], src, tele, e0row)
}

// ShardSet is a Transition split into per-shard CSRs under a Partition —
// the graph-layer substrate of sharded diffusion. The full Transition stays
// reachable for operations that are inherently global (the sequential
// asynchronous reference engine, graph filters).
type ShardSet struct {
	tr     *Transition
	part   *Partition
	shards []*TransitionShard
}

// NewShardSet partitions tr's graph with pt (nil selects RangePartitioner)
// into k shards and copies each shard's CSR rows into contiguous arrays.
func NewShardSet(tr *Transition, pt Partitioner, k int) *ShardSet {
	if pt == nil {
		pt = RangePartitioner{}
	}
	g := tr.Graph()
	part := pt.Partition(g, k)
	ss := &ShardSet{tr: tr, part: part, shards: make([]*TransitionShard, part.NumShards())}
	for s := range ss.shards {
		nodes := part.Nodes(s)
		sh := &TransitionShard{id: s, nodes: nodes, offsets: make([]int, len(nodes)+1)}
		vol := 0
		for _, u := range nodes {
			vol += g.Degree(u)
		}
		sh.neighbors = make([]NodeID, 0, vol)
		sh.weights = make([]float64, 0, vol)
		for i, u := range nodes {
			sh.offsets[i] = len(sh.neighbors)
			sh.neighbors = append(sh.neighbors, g.Neighbors(u)...)
			sh.weights = append(sh.weights, tr.Weights(u)...)
			for _, v := range g.Neighbors(u) {
				if part.ShardOf(v) != s {
					sh.cross++
				}
			}
		}
		sh.offsets[len(nodes)] = len(sh.neighbors)
		ss.shards[s] = sh
	}
	return ss
}

// Transition returns the full (unsharded) operator.
func (ss *ShardSet) Transition() *Transition { return ss.tr }

// Partition returns the node→shard assignment.
func (ss *ShardSet) Partition() *Partition { return ss.part }

// NumShards returns the shard count.
func (ss *ShardSet) NumShards() int { return len(ss.shards) }

// Shard returns shard s.
func (ss *ShardSet) Shard(s int) *TransitionShard { return ss.shards[s] }

// CrossEntries returns the total directed boundary edges across all shards
// (each undirected cut edge counts twice, once per direction — the per-round
// worst-case cross-shard message volume).
func (ss *ShardSet) CrossEntries() int {
	total := 0
	for _, sh := range ss.shards {
		total += sh.cross
	}
	return total
}
