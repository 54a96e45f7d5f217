package graph

import (
	"fmt"
	"math"
	"sync"

	"diffusearch/internal/vecmath"
)

// Normalization selects how the adjacency matrix is turned into the
// transition matrix A of eq. (5) ("a suitable normalization of the
// adjacency matrix"). The choice is an ablation axis of the reproduction.
type Normalization int

const (
	// ColumnStochastic sets A[u][v] = 1/deg(v): the random-walk transition
	// matrix. Diffusion mass is conserved and each node only needs its
	// neighbours' degrees, so this is the default for the decentralized
	// implementation.
	ColumnStochastic Normalization = iota + 1
	// RowStochastic sets A[u][v] = 1/deg(u): each node averages its
	// neighbours' values.
	RowStochastic
	// Symmetric sets A[u][v] = 1/sqrt(deg(u)*deg(v)), the normalization
	// used by graph convolution networks.
	Symmetric
)

// String implements fmt.Stringer.
func (n Normalization) String() string {
	switch n {
	case ColumnStochastic:
		return "column-stochastic"
	case RowStochastic:
		return "row-stochastic"
	case Symmetric:
		return "symmetric"
	default:
		return fmt.Sprintf("Normalization(%d)", int(n))
	}
}

// Valid reports whether n is a known normalization.
func (n Normalization) Valid() bool {
	switch n {
	case ColumnStochastic, RowStochastic, Symmetric:
		return true
	}
	return false
}

// Transition provides the weights of the normalized adjacency operator for
// one graph. Weight(u, v) is A[u][v] for an edge {u,v}; the operator is only
// defined on edges.
//
// The weights are materialized once into a CSR-aligned array (weights[i]
// corresponds to the i-th entry of the graph's neighbor array), so the
// diffusion kernels stream edge weights linearly instead of re-deriving
// them branch-per-edge from node degrees.
type Transition struct {
	g       *Graph
	norm    Normalization
	invDeg  []float64
	invSqrt []float64
	weights []float64 // CSR-aligned: weights[i] = A[u][neighbors[i]]

	// Cached greedy coloring for the multi-color Gauss–Seidel engine,
	// computed on first use (see Coloring). Transitions are immutable, so
	// once computed it is valid for the object's lifetime.
	colorOnce sync.Once
	coloring  *Coloring
}

// NewTransition precomputes degree normalizers and the CSR-aligned edge
// weights for g under norm.
func NewTransition(g *Graph, norm Normalization) *Transition {
	if !norm.Valid() {
		panic(fmt.Sprintf("graph: invalid normalization %d", int(norm)))
	}
	n := g.NumNodes()
	t := &Transition{g: g, norm: norm}
	t.invDeg = make([]float64, n)
	t.invSqrt = make([]float64, n)
	for u := 0; u < n; u++ {
		if d := g.Degree(u); d > 0 {
			t.invDeg[u] = 1 / float64(d)
			t.invSqrt[u] = 1 / math.Sqrt(float64(d))
		}
	}
	t.weights = make([]float64, len(g.neighbors))
	for u := 0; u < n; u++ {
		start, end := g.offsets[u], g.offsets[u+1]
		switch norm {
		case ColumnStochastic:
			for i := start; i < end; i++ {
				t.weights[i] = t.invDeg[g.neighbors[i]]
			}
		case RowStochastic:
			w := t.invDeg[u]
			for i := start; i < end; i++ {
				t.weights[i] = w
			}
		default: // Symmetric
			w := t.invSqrt[u]
			for i := start; i < end; i++ {
				t.weights[i] = w * t.invSqrt[g.neighbors[i]]
			}
		}
	}
	return t
}

// Graph returns the underlying graph.
func (t *Transition) Graph() *Graph { return t.g }

// Weight returns A[u][v] for the edge {u,v}. The caller must pass an actual
// edge; the weight of a non-edge is 0 by definition but is not checked here
// because all call sites iterate neighbor lists.
func (t *Transition) Weight(u, v NodeID) float64 {
	switch t.norm {
	case ColumnStochastic:
		return t.invDeg[v]
	case RowStochastic:
		return t.invDeg[u]
	default: // Symmetric
		return t.invSqrt[u] * t.invSqrt[v]
	}
}

// Weights returns the edge weights of u's CSR row: Weights(u)[i] is
// A[u][Neighbors(u)[i]]. The returned slice aliases internal storage and
// must not be mutated.
func (t *Transition) Weights(u NodeID) []float64 {
	return t.weights[t.g.offsets[u]:t.g.offsets[u+1]:t.g.offsets[u+1]]
}

// ApplyRow accumulates coeff · Σ_{v∈N(u)} A[u][v] · src[v] into dst in one
// fused pass over u's CSR row: edge weights and neighbor ids stream from
// two parallel arrays with no per-edge normalization branch. dst must have
// src.Cols() length; entries are added to (callers zero dst first when they
// want a plain product).
func (t *Transition) ApplyRow(dst []float64, u NodeID, coeff float64, src *vecmath.Matrix) {
	if len(dst) != src.Cols() {
		panic(fmt.Sprintf("graph: ApplyRow width mismatch dst=%d src=%d", len(dst), src.Cols()))
	}
	start, end := t.g.offsets[u], t.g.offsets[u+1]
	ws := t.weights[start:end]
	for i, v := range t.g.neighbors[start:end] {
		w := coeff * ws[i]
		row := src.Row(v)
		// Reslicing dst to the row length lets the compiler prove d[j] in
		// bounds and drop the per-element check in the hot loop.
		d := dst[:len(row)]
		for j, x := range row {
			d[j] += w * x
		}
	}
}

// ApplyRowAffine computes dst = tele·e0row + coeff · Σ_{v∈N(u)} A[u][v] ·
// src[v] in one fused pass: the teleport term seeds dst (replacing the
// separate Zero + AXPY passes of the eq. 7 kernels) and the CSR row
// accumulates on top, four edges at a time so each dst element is
// loaded/stored once per edge quad. It is the single affine entry of the
// diffusion engines: on amd64 with AVX2 (see HasVectorKernel) the body is
// the SIMD kernel of affine_amd64.s, elsewhere the portable Go kernel
// below, and the two are bit-for-bit identical at every width (one IEEE
// multiply/add per scalar multiply/add, same per-element order). Note the
// addition order differs from Zero+ApplyRow+AXPY, so results are equal to
// that sequence only up to rounding — callers needing bit-compatibility
// with the historical synchronous filter must keep the unfused sequence.
func (t *Transition) ApplyRowAffine(dst []float64, u NodeID, coeff float64, src *vecmath.Matrix, tele float64, e0row []float64) {
	if len(dst) != src.Cols() || len(e0row) != len(dst) {
		panic(fmt.Sprintf("graph: ApplyRowAffine width mismatch dst=%d e0=%d src=%d", len(dst), len(e0row), src.Cols()))
	}
	start, end := t.g.offsets[u], t.g.offsets[u+1]
	applyRowAffine(dst, coeff, t.g.neighbors[start:end], t.weights[start:end], src, tele, e0row)
}

// applyRowAffineKernel is the portable 4-edge-unrolled Go body of
// Transition.ApplyRowAffine: the fallback where no SIMD kernel exists, and
// the reference the bit-identity test holds the SIMD kernel to.
func applyRowAffineKernel(dst []float64, coeff float64, nbrs []NodeID, ws []float64, src *vecmath.Matrix, tele float64, e0row []float64) {
	e := e0row[:len(dst)]
	for j := range dst {
		dst[j] = tele * e[j]
	}
	end := len(nbrs)
	i := 0
	for ; i+3 < end; i += 4 {
		w1 := coeff * ws[i]
		w2 := coeff * ws[i+1]
		w3 := coeff * ws[i+2]
		w4 := coeff * ws[i+3]
		r1 := src.Row(nbrs[i])
		r2 := src.Row(nbrs[i+1])
		r3 := src.Row(nbrs[i+2])
		r4 := src.Row(nbrs[i+3])
		d := dst[:len(r1)]
		r2 = r2[:len(r1)]
		r3 = r3[:len(r1)]
		r4 = r4[:len(r1)]
		for j, x := range r1 {
			d[j] += w1*x + w2*r2[j] + w3*r3[j] + w4*r4[j]
		}
	}
	for ; i < end; i++ {
		w := coeff * ws[i]
		row := src.Row(nbrs[i])
		d := dst[:len(row)]
		for j, x := range row {
			d[j] += w * x
		}
	}
}

// HasVectorKernel reports whether ApplyRowAffine runs on a SIMD
// implementation (amd64 with AVX2) rather than the portable Go kernel.
// Exposed so benchmarks and snapshot metadata can record which body
// produced a measurement.
func HasVectorKernel() bool { return hasVec }

// Apply computes dst[u] = Σ_{v∈N(u)} A[u][v] · src[v] for a scalar signal.
// dst and src must have length NumNodes and must not alias.
func (t *Transition) Apply(dst, src []float64) {
	n := t.g.NumNodes()
	if len(dst) != n || len(src) != n {
		panic(fmt.Sprintf("graph: Apply length mismatch dst=%d src=%d n=%d", len(dst), len(src), n))
	}
	for u := 0; u < n; u++ {
		var s float64
		start, end := t.g.offsets[u], t.g.offsets[u+1]
		for i := start; i < end; i++ {
			s += t.weights[i] * src[t.g.neighbors[i]]
		}
		dst[u] = s
	}
}
