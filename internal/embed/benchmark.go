package embed

import (
	"fmt"

	"diffusearch/internal/randx"
)

// QueryPair couples a query word with its gold document word, mined per the
// paper's protocol: gold is the query's nearest neighbour, accepted only
// when their cosine exceeds the threshold (§V-B: 0.6).
type QueryPair struct {
	Query WordID
	Gold  WordID
	Cos   float64 // cosine between query and gold at mining time
}

// Benchmark is a mined retrieval workload: query/gold pairs plus the pool
// of irrelevant words, with queries, golds, and pool mutually disjoint.
type Benchmark struct {
	Pairs []QueryPair
	Pool  []WordID
	vocab *Vocabulary
}

// DefaultGoldThreshold is the paper's cosine acceptance threshold for gold
// documents (§V-B).
const DefaultGoldThreshold = 0.6

// MineBenchmark mines up to numQueries query/gold pairs from v: words are
// visited in a seeded random order; a word becomes a query if its nearest
// unassigned neighbour has cosine ≥ minCos, in which case that neighbour
// becomes its gold document. All remaining words form the irrelevant pool.
//
// The visit runs in blocks: the next nnBlock words still unassigned share
// one NearestNeighbors pass over the words unassigned at the block's start,
// then are taken in order. A word assigned since then is skipped. A word
// whose precomputed neighbour is still unassigned takes it unchanged: the
// unassigned set only shrinks, so the maximum over the larger set, still
// present in the smaller one, is the maximum there too, and a lower-id tie
// in the smaller set would have won in the larger. Otherwise the word is
// rescanned alone. The pairs are therefore exactly those of visiting one
// word at a time, cosines and ties included.
//
// It returns an error when fewer than numQueries pairs can be mined, since
// a short workload would silently weaken the experiments.
func MineBenchmark(v *Vocabulary, numQueries int, minCos float64, seed uint64) (*Benchmark, error) {
	if numQueries < 1 {
		return nil, fmt.Errorf("embed: numQueries %d < 1", numQueries)
	}
	if minCos <= -1 || minCos >= 1 {
		return nil, fmt.Errorf("embed: minCos %v out of (-1,1)", minCos)
	}
	r := randx.Derive(seed, "benchmark", "order")
	order := r.Perm(v.Len())
	assigned := make([]bool, v.Len()) // query or gold
	skip := func(u WordID) bool { return assigned[u] }

	pairs := make([]QueryPair, 0, numQueries)
	block := make([]WordID, 0, nnBlock)
	nn, cos := make([]WordID, nnBlock), make([]float64, nnBlock)
	for next := 0; next < len(order) && len(pairs) < numQueries; {
		block = block[:0]
		for ; next < len(order) && len(block) < nnBlock; next++ {
			if w := order[next]; !assigned[w] {
				block = append(block, w)
			}
		}
		v.NearestNeighbors(block, skip, nn[:len(block)], cos[:len(block)])
		for j, w := range block {
			if len(pairs) == numQueries {
				break
			}
			if assigned[w] {
				continue
			}
			gold, c := nn[j], cos[j]
			if gold >= 0 && assigned[gold] {
				gold, c = v.NearestNeighbor(w, skip)
			}
			if gold < 0 || c < minCos {
				continue
			}
			assigned[w] = true
			assigned[gold] = true
			pairs = append(pairs, QueryPair{Query: w, Gold: gold, Cos: c})
		}
	}
	if len(pairs) < numQueries {
		return nil, fmt.Errorf("embed: mined only %d/%d pairs at threshold %v; grow the vocabulary or lower the threshold",
			len(pairs), numQueries, minCos)
	}
	pool := make([]WordID, 0, v.Len()-2*numQueries)
	for w := 0; w < v.Len(); w++ {
		if !assigned[w] {
			pool = append(pool, w)
		}
	}
	return &Benchmark{Pairs: pairs, Pool: pool, vocab: v}, nil
}

// Vocabulary returns the vocabulary the benchmark was mined from.
func (b *Benchmark) Vocabulary() *Vocabulary { return b.vocab }

// SamplePair returns a uniformly chosen query/gold pair.
func (b *Benchmark) SamplePair(r *randx.Rand) QueryPair {
	return b.Pairs[r.IntN(len(b.Pairs))]
}

// SamplePool draws m distinct irrelevant words. It panics if m exceeds the
// pool size; experiment configs are validated upstream.
func (b *Benchmark) SamplePool(r *randx.Rand, m int) []WordID {
	idx := randx.Sample(r, len(b.Pool), m)
	out := make([]WordID, m)
	for i, j := range idx {
		out[i] = b.Pool[j]
	}
	return out
}
