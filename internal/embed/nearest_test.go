package embed

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"diffusearch/internal/randx"
	"diffusearch/internal/vecmath"
)

// scanNearest is the one-word scan NearestNeighbor ran before the block
// pass: every other unskipped word in ascending id order, replaced only on
// a strictly higher cosine. It is the oracle for NearestNeighbors.
func scanNearest(v *Vocabulary, w WordID, skip func(WordID) bool) (WordID, float64) {
	best, bestCos := -1, -2.0
	wv := v.vecs.Row(w)
	for u := 0; u < v.Len(); u++ {
		if u == w || (skip != nil && skip(u)) {
			continue
		}
		if c := vecmath.Dot(wv, v.vecs.Row(u)); c > bestCos {
			best, bestCos = u, c
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, bestCos
}

// mineSequential is MineBenchmark as it ran before the block pass: one
// scanNearest per visited word. It is the oracle for MineBenchmark.
func mineSequential(v *Vocabulary, numQueries int, minCos float64, seed uint64) ([]QueryPair, []WordID, error) {
	r := randx.Derive(seed, "benchmark", "order")
	order := r.Perm(v.Len())
	assigned := make([]bool, v.Len())
	skip := func(u WordID) bool { return assigned[u] }
	var pairs []QueryPair
	for _, w := range order {
		if len(pairs) == numQueries {
			break
		}
		if assigned[w] {
			continue
		}
		nn, cos := scanNearest(v, w, skip)
		if nn < 0 || cos < minCos {
			continue
		}
		assigned[w] = true
		assigned[nn] = true
		pairs = append(pairs, QueryPair{Query: w, Gold: nn, Cos: cos})
	}
	if len(pairs) < numQueries {
		return nil, nil, fmt.Errorf("mined only %d/%d pairs", len(pairs), numQueries)
	}
	var pool []WordID
	for w := 0; w < v.Len(); w++ {
		if !assigned[w] {
			pool = append(pool, w)
		}
	}
	return pairs, pool, nil
}

// duplicatedVocab is a seeded synthetic vocabulary in which every fifth
// word is overwritten with an exact copy of a random other word, so cosine
// ties between distinct ids are common.
func duplicatedVocab(t *testing.T, words int, seed uint64) *Vocabulary {
	t.Helper()
	v, err := Synthetic(SyntheticParams{Words: words, Dim: 24, Clusters: words / 10, Spread: 0.5, CommonComponent: 0.3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	r := randx.New(seed)
	for w := 0; w < words; w += 5 {
		copy(v.vecs.Row(w), v.vecs.Row(r.IntN(words)))
	}
	return v
}

func TestNearestNeighborsMatchScan(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ties := 0
	for seed := uint64(1); seed <= 4; seed++ {
		v := duplicatedVocab(t, 301, seed) // 301 rows split unevenly over 2 and 3 workers
		r := randx.New(100 + seed)
		for _, procs := range []int{1, 2, 3} {
			runtime.GOMAXPROCS(procs)
			for _, size := range []int{1, 3, 33} {
				for trial := 0; trial < 5; trial++ {
					skipped := make([]bool, v.Len())
					density := r.Float64()
					for u := range skipped {
						skipped[u] = r.Float64() < density
					}
					skip := func(u WordID) bool { return skipped[u] }
					ws := make([]WordID, size)
					for j := range ws {
						ws[j] = r.IntN(v.Len())
					}
					nn, cos := make([]WordID, size), make([]float64, size)
					v.NearestNeighbors(ws, skip, nn, cos)
					for j, w := range ws {
						want, wantCos := scanNearest(v, w, skip)
						if nn[j] != want || math.Float64bits(cos[j]) != math.Float64bits(wantCos) {
							t.Fatalf("seed %d procs %d size %d word %d: got (%d, %v), scan gives (%d, %v)",
								seed, procs, size, w, nn[j], cos[j], want, wantCos)
						}
						if want >= 0 {
							for u := want + 1; u < v.Len(); u++ {
								if u != w && !skipped[u] && v.Cosine(w, u) == wantCos {
									ties++
									break
								}
							}
						}
					}
				}
			}
		}
		if nn, cos := v.NearestNeighbor(0, func(WordID) bool { return true }); nn != -1 || cos != 0 {
			t.Fatalf("all skipped: got (%d, %v), want (-1, 0)", nn, cos)
		}
	}
	if ties == 0 {
		t.Fatal("no query had a tied nearest neighbour; the tie rule went untested")
	}
}

// sharedNeighbourVocab is a hand-built vocabulary small enough to be one
// mining block, in which words 1 and 2 both have word 0 as their nearest
// neighbour: whichever of the three is visited first takes a partner, and
// the other word's precomputed neighbour is then assigned, so it must be
// rescanned. The remaining words are seeded random unit vectors.
func sharedNeighbourVocab(t *testing.T) *Vocabulary {
	t.Helper()
	const words, dim = 12, 8
	v := &Vocabulary{dim: dim, vecs: vecmath.NewMatrix(words, dim), cluster: make([]int, words)}
	v.vecs.Row(0)[0] = 1
	for w := 1; w <= 2; w++ {
		row := v.vecs.Row(w)
		row[0], row[w] = 1, 0.3
		vecmath.Normalize(row)
	}
	r := randx.New(7)
	for w := 3; w < words; w++ {
		copy(v.vecs.Row(w), vecmath.RandomUnit(r, dim))
	}
	for w := range v.cluster {
		v.cluster[w] = -1
	}
	return v
}

func TestMineBenchmarkMatchesSequentialScan(t *testing.T) {
	type workload struct {
		name       string
		v          *Vocabulary
		numQueries int
	}
	loads := []workload{
		{"shared-neighbour", sharedNeighbourVocab(t), 2},
		{"duplicates", duplicatedVocab(t, 301, 9), 60},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		loads = append(loads, workload{fmt.Sprintf("synthetic-%d", seed), smallVocab(t, seed), 120})
	}
	for _, l := range loads {
		for _, minCos := range []float64{0.1, 0.6, 0.8} {
			for seed := uint64(1); seed <= 4; seed++ {
				wantPairs, wantPool, wantErr := mineSequential(l.v, l.numQueries, minCos, seed)
				b, err := MineBenchmark(l.v, l.numQueries, minCos, seed)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%s minCos %v seed %d: error %v, sequential mining gives %v", l.name, minCos, seed, err, wantErr)
				}
				if err != nil {
					continue
				}
				if len(b.Pairs) != len(wantPairs) || len(b.Pool) != len(wantPool) {
					t.Fatalf("%s minCos %v seed %d: %d pairs / %d pool, want %d / %d",
						l.name, minCos, seed, len(b.Pairs), len(b.Pool), len(wantPairs), len(wantPool))
				}
				for i, p := range b.Pairs {
					q := wantPairs[i]
					if p.Query != q.Query || p.Gold != q.Gold || math.Float64bits(p.Cos) != math.Float64bits(q.Cos) {
						t.Fatalf("%s minCos %v seed %d pair %d: got %+v, want %+v", l.name, minCos, seed, i, p, q)
					}
				}
				for i, w := range b.Pool {
					if w != wantPool[i] {
						t.Fatalf("%s minCos %v seed %d pool[%d] = %d, want %d", l.name, minCos, seed, i, w, wantPool[i])
					}
				}
			}
		}
	}
}
