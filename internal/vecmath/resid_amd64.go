//go:build amd64

package vecmath

// hasResidVec gates the AVX2 residual kernels, detected once at init
// (the same OSXSAVE/AVX/AVX2 probe the graph package's affine kernel
// uses — the packages must not import each other, so each carries its
// own copy).
var hasResidVec = x86HasAVX2()

// x86HasAVX2 is implemented in resid_amd64.s.
func x86HasAVX2() bool

//go:noescape
func residMaxCopyAVX2(cr, row, sc []float64) float64

//go:noescape
func residMaxAVX2(cr, old, upd []float64) float64

// Below one vector of columns the AVX2 bodies would run only their scalar
// tails behind a mask set-up, a horizontal fold and a VZEROUPPER; the Go
// bodies are the same handful of scalar operations without the call.

func residMaxCopy(cr, row, sc []float64) float64 {
	if hasResidVec && len(cr) >= 4 {
		return residMaxCopyAVX2(cr, row, sc)
	}
	return residMaxCopyGo(cr, row, sc)
}

func residMax(cr, old, upd []float64) float64 {
	if hasResidVec && len(cr) >= 4 {
		return residMaxAVX2(cr, old, upd)
	}
	return residMaxGo(cr, old, upd)
}
