package diffuse

import (
	"fmt"

	"diffusearch/internal/graph"
	"diffusearch/internal/randx"
	"diffusearch/internal/vecmath"
)

// Signal is an n×B column block of B independent scalar node signals
// diffused together — the batch-query payload of the unified request API.
// Column j holds one signal over the graph (for content search: the
// per-node query relevances x_j[v] = e_qj · E0[v] of one query), and all
// engines diffuse the block column-blocked: one fused Transition.ApplyRow
// pass per node streams the CSR row once and advances every column, so the
// per-edge cost is amortized across the batch instead of paid per query.
//
// Because the PPR filter is linear and columns never mix, each column
// converges on its own trajectory. The column kernels therefore track
// residuals per column and retire a column from the active working block
// as soon as it individually converges (per-column early termination);
// retired columns stop costing compute while slower columns finish. The
// sweep at which each column retired is reported in Stats.ColumnSweeps.
type Signal struct {
	mat *vecmath.Matrix
}

// NewSignal wraps an n×B matrix (one node per row, one signal per column)
// as a diffusion signal. The matrix is not copied; the engines treat it as
// read-only input.
func NewSignal(m *vecmath.Matrix) *Signal {
	if m == nil {
		panic("diffuse: nil signal matrix")
	}
	return &Signal{mat: m}
}

// Matrix returns the underlying n×B matrix. It aliases Signal storage.
func (s *Signal) Matrix() *vecmath.Matrix { return s.mat }

// Nodes returns n, the per-column signal length.
func (s *Signal) Nodes() int { return s.mat.Rows() }

// Columns returns B, the batch width.
func (s *Signal) Columns() int { return s.mat.Cols() }

// Column returns an owned copy of column j — one per-node score slice.
func (s *Signal) Column(j int) []float64 { return s.mat.Column(j) }

// checkSignal validates the common engine preconditions.
func checkSignal(tr *graph.Transition, sig *Signal, p Params) (n int, err error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	n = tr.Graph().NumNodes()
	if sig.mat.Rows() != n {
		return 0, fmt.Errorf("diffuse: signal has %d rows, graph has %d nodes", sig.mat.Rows(), n)
	}
	return n, nil
}

// matrixOf unwraps a column kernel's result for the matrix-form entry
// points, whose embedding diffusion is a Signal run over the embedding
// dimensions.
func matrixOf(sig *Signal, st Stats, err error) (*vecmath.Matrix, Stats, error) {
	if sig == nil {
		return nil, st, err
	}
	return sig.mat, st, err
}

// SynchronousColumns diffuses a column block with the synchronous engine:
// full eq. 7 sweeps over every node, per-column residuals, and columns
// retired the sweep their residual first drops to tol. It keeps the
// unfused Zero+ApplyRow+AXPY update (not the fused affine kernel): the
// sync engine is the bit-compatibility anchor of the historical
// ppr.PPRFilter path, whose addition order the fused kernel does not
// reproduce, so a single-column Signal is bit-for-bit identical to
// Synchronous (and therefore to ppr.PPRFilter) on the same input.
func SynchronousColumns(tr *graph.Transition, sig *Signal, p Params) (*Signal, Stats, error) {
	n, err := checkSignal(tr, sig, p)
	if err != nil {
		return nil, Stats{}, err
	}
	tol, maxSweeps := p.syncControls()
	edgeMsgs := 2 * int64(tr.Graph().NumEdges())
	r := newSweepRun(sig, 1, true)
	return r.drive(p, tol, maxSweeps, func() (int, bool) {
		cr := r.res[0]
		for u := 0; u < n; u++ {
			row := r.next.Row(u)
			vecmath.Zero(row)
			tr.ApplyRow(row, u, 1-p.Alpha, r.cur)
			vecmath.AXPY(row, p.Alpha, r.e0.Row(u))
			vecmath.ResidMax(cr, r.cur.Row(u), row)
		}
		r.cur, r.next = r.next, r.cur
		r.st.Updates += int64(n)
		r.st.Messages += edgeMsgs
		return n, false
	})
}

// AsynchronousColumns diffuses a column block with the asynchronous engine:
// seeded randomized single-node Gauss–Seidel updates applied in place
// (peers always gossip their latest value), per-column sweep residuals, and
// columns retired the sweep their residual first drops to tol. A sweep
// visits every node once in a fresh random order, which guarantees the
// no-starvation condition of [34] while remaining fully asynchronous in
// effect (updates see mid-sweep values). One permutation is drawn per
// sweep and shared by every column, so each column's trajectory — and its
// retirement sweep — is bit-identical to diffusing that column alone.
func AsynchronousColumns(tr *graph.Transition, sig *Signal, p Params, rnd *randx.Rand) (*Signal, Stats, error) {
	n, err := checkSignal(tr, sig, p)
	if err != nil {
		return nil, Stats{}, err
	}
	tol, maxSweeps := p.controls()
	edgeMsgs := 2 * int64(tr.Graph().NumEdges()) // each node pulls its neighbourhood once per sweep
	r := newSweepRun(sig, 1, false)
	scratch := make([]float64, sig.Columns())
	return r.drive(p, tol, maxSweeps, func() (int, bool) {
		perm := rnd.Perm(n)
		cr := r.res[0]
		sc := scratch[:len(cr)]
		for _, u := range perm {
			tr.ApplyRowAffine(sc, u, 1-p.Alpha, r.cur, p.Alpha, r.e0.Row(u))
			vecmath.ResidMaxCopy(cr, r.cur.Row(u), sc)
		}
		r.st.Updates += int64(n)
		r.st.Messages += edgeMsgs
		return n, false
	})
}
