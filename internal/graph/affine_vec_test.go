package graph

import (
	"math/rand"
	"testing"

	"diffusearch/internal/vecmath"
)

// randTransition builds a random graph whose rows exercise every unroll
// path: degrees 0..13 cover the 4-edge quads plus 0..3 remainder edges.
func randTransition(t testing.TB, n int, r *rand.Rand) *Transition {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		deg := r.Intn(14)
		for k := 0; k < deg; k++ {
			v := r.Intn(n)
			if v != u {
				b.AddEdge(u, v)
			}
		}
	}
	g := b.Build()
	return NewTransition(g, ColumnStochastic)
}

// affineInputs fills an n×cols source block and personalization block
// with seeded noise.
func affineInputs(r *rand.Rand, n, cols int) (src, e0 *vecmath.Matrix) {
	src, e0 = vecmath.NewMatrix(n, cols), vecmath.NewMatrix(n, cols)
	for _, m := range []*vecmath.Matrix{src, e0} {
		d := m.Data()
		for i := range d {
			d[i] = r.NormFloat64()
		}
	}
	return src, e0
}

// applyRowAffineGo runs row u through the portable Go body, whatever body
// the dispatched entry would pick: the reference side of the bit-identity
// test and the "go" side of BenchmarkApplyRowAffine.
func applyRowAffineGo(tr *Transition, dst []float64, u NodeID, coeff float64, src *vecmath.Matrix, tele float64, e0row []float64) {
	start, end := tr.g.offsets[u], tr.g.offsets[u+1]
	applyRowAffineKernel(dst, coeff, tr.g.neighbors[start:end], tr.weights[start:end], src, tele, e0row)
}

// TestApplyRowAffineBitIdentical holds the single affine entry (the SIMD
// kernel where the CPU has one) to the portable Go body bit-for-bit, on
// random rows across widths that hit every vector/scalar tail combination
// and on rows of exactly the degrees that select each unroll path: none,
// remainder only (1, 3), one quad (4), quad plus remainder (5, 9).
func TestApplyRowAffineBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	random := randTransition(t, 97, r)
	const n = 97
	degrees := []int{0, 1, 3, 4, 5, 9}
	b := NewBuilder(n)
	for u, deg := range degrees {
		for k := 1; k <= deg; k++ {
			b.AddEdge(u, len(degrees)+u*10+k) // private leaves: degree exactly deg
		}
	}
	exact := NewTransition(b.Build(), Symmetric)
	for u, deg := range degrees {
		if got := exact.Graph().Degree(u); got != deg {
			t.Fatalf("fixture row %d has degree %d, want %d", u, got, deg)
		}
	}
	for _, cols := range []int{1, 2, 3, 4, 5, 7, 8, 13, 31, 32, 33, 64, 67, 127, 512} {
		src, e0 := affineInputs(r, n, cols)
		want := make([]float64, cols)
		got := make([]float64, cols)
		for name, tr := range map[string]*Transition{"random": random, "exact-degree": exact} {
			for u := 0; u < n; u++ {
				applyRowAffineGo(tr, want, u, 0.5, src, 0.15, e0.Row(u))
				tr.ApplyRowAffine(got, u, 0.5, src, 0.15, e0.Row(u))
				for j := range want {
					if want[j] != got[j] {
						t.Fatalf("%s cols=%d u=%d (deg %d) col=%d: entry=%v go=%v (must be bit-identical)",
							name, cols, u, tr.Graph().Degree(u), j, got[j], want[j])
					}
				}
			}
		}
	}
}
