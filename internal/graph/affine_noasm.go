//go:build !amd64

package graph

import "diffusearch/internal/vecmath"

// hasVec: no SIMD kernel on this architecture; the portable Go kernel is
// the only implementation.
const hasVec = false

func applyRowAffine(dst []float64, coeff float64, nbrs []NodeID, ws []float64, src *vecmath.Matrix, tele float64, e0row []float64) {
	applyRowAffineKernel(dst, coeff, nbrs, ws, src, tele, e0row)
}
