// Package embed provides the embedding corpus substrate. The paper draws
// documents and queries from GloVe 300-d word embeddings; that dataset is
// not shipped here, so Synthetic generates a vocabulary with the same
// retrieval-relevant geometry: unit vectors clustered on the sphere so that
// every word has same-cluster neighbours at cosine ≥ 0.6 while cross-cluster
// cosines concentrate near zero (see PAPER.md).
package embed

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"

	"diffusearch/internal/randx"
	"diffusearch/internal/vecmath"
)

// WordID indexes a word in a Vocabulary.
type WordID = int

// Vocabulary is an immutable table of unit-norm word embeddings.
type Vocabulary struct {
	dim     int
	vecs    *vecmath.Matrix
	cluster []int // cluster id per word; -1 when unknown
}

// SyntheticParams configure Synthetic.
type SyntheticParams struct {
	Words    int     // vocabulary size
	Dim      int     // embedding dimension (paper: 300)
	Clusters int     // number of semantic clusters
	Spread   float64 // expected norm of the Gaussian noise around the cluster centre

	// CommonComponent adds a shared direction (with this weight) to every
	// word before normalization, mimicking the well-known anisotropy of
	// GloVe embeddings: random word pairs then have positive cosine
	// ≈ c²/(1+c²) instead of ≈ 0. This matters for reproducing the paper's
	// α trade-off — summed irrelevant documents must inject positive noise
	// into heavy diffusion (§V-C).
	CommonComponent float64

	Seed uint64
}

// DefaultSyntheticParams returns the full-scale corpus parameters used by
// the experiments: a 15k-word, 300-d vocabulary with ≈0.8 expected
// same-cluster cosine (above the paper's 0.6 gold threshold) and ≈0.26
// background cosine between unrelated words (GloVe-like anisotropy).
func DefaultSyntheticParams(seed uint64) SyntheticParams {
	return SyntheticParams{Words: 15000, Dim: 300, Clusters: 1200, Spread: 0.55, CommonComponent: 0.6, Seed: seed}
}

func (p SyntheticParams) validate() error {
	switch {
	case p.Words < 1:
		return fmt.Errorf("embed: need >= 1 word, got %d", p.Words)
	case p.Dim < 2:
		return fmt.Errorf("embed: need dim >= 2, got %d", p.Dim)
	case p.Clusters < 1 || p.Clusters > p.Words:
		return fmt.Errorf("embed: clusters %d out of [1,%d]", p.Clusters, p.Words)
	case p.Spread < 0:
		return fmt.Errorf("embed: negative spread %v", p.Spread)
	case p.CommonComponent < 0:
		return fmt.Errorf("embed: negative common component %v", p.CommonComponent)
	}
	return nil
}

// Synthetic generates a clustered vocabulary. Every word is the
// normalization of (cluster centre + Spread·gaussian); with unit centres the
// expected same-cluster cosine is ≈ 1/(1+Spread²).
func Synthetic(p SyntheticParams) (*Vocabulary, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	centreRand := randx.Derive(p.Seed, "embed", "centres")
	noiseRand := randx.Derive(p.Seed, "embed", "noise")
	assignRand := randx.Derive(p.Seed, "embed", "assign")

	common := vecmath.RandomUnit(centreRand, p.Dim)
	centres := make([][]float64, p.Clusters)
	for c := range centres {
		centres[c] = vecmath.RandomUnit(centreRand, p.Dim)
		// Bake the anisotropy into the centres: every word inherits the
		// shared direction through its cluster centre.
		vecmath.AXPY(centres[c], p.CommonComponent, common)
	}
	v := &Vocabulary{
		dim:     p.Dim,
		vecs:    vecmath.NewMatrix(p.Words, p.Dim),
		cluster: make([]int, p.Words),
	}
	// Round-robin over a shuffled cluster order guarantees every cluster has
	// at least ⌊Words/Clusters⌋ members, so threshold mining always finds
	// same-cluster neighbours.
	order := assignRand.Perm(p.Clusters)
	// Spread is the expected Euclidean norm of the whole noise vector, so
	// each coordinate gets std Spread/√dim; the resulting same-cluster
	// cosine concentrates around 1/(1+Spread²) independent of dimension.
	perCoord := p.Spread / math.Sqrt(float64(p.Dim))
	for w := 0; w < p.Words; w++ {
		c := order[w%p.Clusters]
		v.cluster[w] = c
		row := v.vecs.Row(w)
		copy(row, centres[c])
		for i := range row {
			row[i] += perCoord * noiseRand.NormFloat64()
		}
		vecmath.Normalize(row)
	}
	return v, nil
}

// Len returns the vocabulary size.
func (v *Vocabulary) Len() int { return v.vecs.Rows() }

// Dim returns the embedding dimension.
func (v *Vocabulary) Dim() int { return v.dim }

// Vector returns the embedding of word w. The slice aliases internal
// storage and must not be mutated.
func (v *Vocabulary) Vector(w WordID) []float64 { return v.vecs.Row(w) }

// Cluster returns the cluster id of word w (-1 when unknown).
func (v *Vocabulary) Cluster(w WordID) int { return v.cluster[w] }

// Word returns a synthetic token for w, stable across runs.
func (v *Vocabulary) Word(w WordID) string { return "w" + strconv.Itoa(w) }

// Cosine returns the cosine similarity between two words. Vectors are
// unit-norm by construction so this is a single dot product.
func (v *Vocabulary) Cosine(a, b WordID) float64 {
	return vecmath.Dot(v.vecs.Row(a), v.vecs.Row(b))
}

// nnBlock is the number of query words a NearestNeighbors pass scores per
// streamed vocabulary row: 32 query vectors of the paper's 300 dimensions
// (75 KB) stay cache-resident while the vocabulary streams past them.
const nnBlock = 32

// NearestNeighbor returns the word with the highest cosine to w, skipping w
// itself and any word for which skip returns true; equal cosines go to the
// lower word id. It returns (-1, 0) when every other word is skipped. skip
// may be nil. It is the one-word case of NearestNeighbors.
func (v *Vocabulary) NearestNeighbor(w WordID, skip func(WordID) bool) (WordID, float64) {
	nn, cos := []WordID{0}, []float64{0}
	v.NearestNeighbors([]WordID{w}, skip, nn, cos)
	return nn[0], cos[0]
}

// NearestNeighbors stores NearestNeighbor(ws[j], skip) into nn[j], cos[j]
// for every j, streaming the vocabulary once per block of nnBlock words.
// The rows are split into one contiguous chunk per runtime.GOMAXPROCS(0)
// worker, so skip is called concurrently and must only read shared state.
//
// The answers are exactly the one-word scan's: vecmath.DotColumns keeps
// Dot's element order, so every cosine is bit-identical, and the tie rule
// (highest cosine, then lowest id) holds within a chunk, which scans rows
// in ascending order and replaces its winner only on a strictly higher
// cosine, and across chunks, which are reduced in ascending row order
// under the same strict comparison.
func (v *Vocabulary) NearestNeighbors(ws []WordID, skip func(WordID) bool, nn []WordID, cos []float64) {
	if len(nn) != len(ws) || len(cos) != len(ws) {
		panic(fmt.Sprintf("embed: NearestNeighbors of %d words into %d/%d slots", len(ws), len(nn), len(cos)))
	}
	for lo := 0; lo < len(ws); lo += nnBlock {
		hi := min(lo+nnBlock, len(ws))
		v.nearestBlock(ws[lo:hi], skip, nn[lo:hi], cos[lo:hi])
	}
}

// nearestBlock is one NearestNeighbors pass over the vocabulary for a block
// of at most nnBlock words.
func (v *Vocabulary) nearestBlock(ws []WordID, skip func(WordID) bool, nn []WordID, cos []float64) {
	qs := make([][]float64, len(ws))
	for j, w := range ws {
		qs[j] = v.vecs.Row(w)
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), v.Len()))
	best := make([]WordID, workers*len(ws))
	bestCos := make([]float64, workers*len(ws))
	scan := func(c int) {
		best, bestCos := best[c*len(ws):(c+1)*len(ws)], bestCos[c*len(ws):(c+1)*len(ws)]
		for j := range best {
			best[j], bestCos[j] = -1, -2
		}
		dots := make([]float64, len(ws))
		for u := c * v.Len() / workers; u < (c+1)*v.Len()/workers; u++ {
			if skip != nil && skip(u) {
				continue
			}
			vecmath.DotColumns(dots, qs, v.vecs.Row(u))
			for j, d := range dots {
				if d > bestCos[j] && u != ws[j] {
					best[j], bestCos[j] = u, d
				}
			}
		}
	}
	var wg sync.WaitGroup
	for c := 1; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scan(c)
		}()
	}
	scan(0)
	wg.Wait()
	for j := range ws {
		nn[j], cos[j] = -1, 0
		for c := 0; c < workers; c++ {
			if u, d := best[c*len(ws)+j], bestCos[c*len(ws)+j]; u >= 0 && (nn[j] < 0 || d > cos[j]) {
				nn[j], cos[j] = u, d
			}
		}
	}
}
