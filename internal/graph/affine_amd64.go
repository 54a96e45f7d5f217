//go:build amd64

package graph

import "diffusearch/internal/vecmath"

// hasVec reports whether the AVX2 affine-row kernel can run on this CPU
// (AVX2 present and YMM state enabled by the OS). Checked once at init.
var hasVec = x86HasAVX2()

// x86HasAVX2 is implemented in affine_amd64.s.
func x86HasAVX2() bool

// affineRowAVX2 is implemented in affine_amd64.s. It computes
//
//	dst = tele·e0 + coeff · Σ_i ws[i] · srcRow(nbrs[i])
//
// four edges at a time with the exact per-element operation order of
// applyRowAffineKernel, so the two produce bit-identical float64 results.
//
//go:noescape
func affineRowAVX2(dst []float64, coeff float64, nbrs []int, ws []float64, src []float64, stride int, tele float64, e0 []float64)

// applyRowAffine dispatches one affine CSR-row accumulation to the AVX2
// kernel when available, else to the portable Go kernel. Same contract and
// bit-identical output either way.
func applyRowAffine(dst []float64, coeff float64, nbrs []NodeID, ws []float64, src *vecmath.Matrix, tele float64, e0row []float64) {
	if hasVec {
		affineRowAVX2(dst, coeff, nbrs, ws, src.Data(), src.Cols(), tele, e0row)
		return
	}
	applyRowAffineKernel(dst, coeff, nbrs, ws, src, tele, e0row)
}
