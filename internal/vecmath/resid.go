package vecmath

import "math"

// ResidMaxCopy folds one updated row into per-column residual maxima:
// for every j it raises cr[j] to |row[j]-sc[j]| if larger, copies sc
// into row, and returns the row's largest delta. This is the fused
// update+residual step of the in-place diffusion kernels (one node, one
// column block): on amd64 with AVX2 it runs 4 columns per instruction and
// is bit-identical to the scalar loop — subtraction and |x| are exact
// per element and max is order-independent. All three slices must share
// one length.
func ResidMaxCopy(cr, row, sc []float64) float64 {
	if len(row) != len(cr) || len(sc) != len(cr) {
		panic("vecmath: ResidMaxCopy length mismatch")
	}
	return residMaxCopy(cr, row, sc)
}

// ResidMax is ResidMaxCopy without the copy-back: it raises each cr[j]
// to |old[j]-upd[j]| and returns the row's largest delta, leaving both
// rows untouched — the residual step of the double-buffered kernels,
// where the new values live in their own matrix. Same SIMD backing and
// bit-identity contract as ResidMaxCopy.
func ResidMax(cr, old, upd []float64) float64 {
	if len(old) != len(cr) || len(upd) != len(cr) {
		panic("vecmath: ResidMax length mismatch")
	}
	return residMax(cr, old, upd)
}

// residMaxCopyGo is the portable reference body of ResidMaxCopy.
func residMaxCopyGo(cr, row, sc []float64) float64 {
	m := 0.0
	for j, v := range sc {
		d := math.Abs(row[j] - v)
		if d > cr[j] {
			cr[j] = d
		}
		if d > m {
			m = d
		}
		row[j] = v
	}
	return m
}

// residMaxGo is the portable reference body of ResidMax.
func residMaxGo(cr, old, upd []float64) float64 {
	m := 0.0
	for j, v := range upd {
		d := math.Abs(old[j] - v)
		if d > cr[j] {
			cr[j] = d
		}
		if d > m {
			m = d
		}
	}
	return m
}
