package diffuse

import (
	"fmt"

	"diffusearch/internal/vecmath"
)

// The sweep driver. Every engine is the same iteration — eq. 7 applied to
// a column block until each column's residual settles — and the engines
// differ only in the order one sweep visits the nodes (the orderings of
// one update catalogued by the PPR survey, arXiv 2403.05198). sweepRun
// owns everything that does not depend on that order: the compact block
// of active columns, the residual merge, Stats, the Observer call,
// retirement and in-place compaction, quiescence, and the no-convergence
// exit. An engine supplies its visit order as the per-sweep body handed to
// drive:
//
//   - SynchronousColumns: every node from the previous sweep's values, with
//     the unfused Zero+ApplyRow+AXPY update that keeps ppr.PPRFilter's
//     rounding;
//   - AsynchronousColumns: a seeded permutation, in place;
//   - ParallelColumns: the residual-driven frontier with its push/commit
//     phase;
//   - ParallelGSColumns: the color classes in fixed order, in place.
//
// The matrix-form entry points (Asynchronous, Parallel, ParallelGS) are
// Signal runs whose columns are the embedding dimensions.
type sweepRun struct {
	// act maps each compact slot of the active block to its original
	// column; out holds the finalized n×B values and sweeps each
	// column's retirement sweep (Stats.ColumnSweeps).
	act    []int
	out    *vecmath.Matrix
	sweeps []int
	// cur is the active block's iterate, n×len(act); next is its double
	// buffer, nil for the in-place engines. e0 is the block's
	// personalization: the input matrix itself until the first retirement,
	// which copies it (ownE0) before compacting it with cur.
	cur, next, e0 *vecmath.Matrix
	ownE0         bool
	// res[w][k] is worker w's residual maximum for active slot k over the
	// sweep in progress — the cr argument of vecmath.ResidMax*. One slice
	// per worker so goroutines never share a residual slot; drive merges
	// and clears them.
	res [][]float64
	// st accumulates the run's Stats. The body adds Updates and Messages;
	// drive owns the rest. Traffic charged before the first
	// sweep (the frontier engines' bootstrap announcement) is set on st
	// before drive and reaches the observer with the first sweep's delta.
	st Stats
}

// newSweepRun lays sig out as one active block for a run whose body writes
// residuals from workers goroutines. needNext allocates the double buffer
// of the barrier engines; the in-place engines pass false.
func newSweepRun(sig *Signal, workers int, needNext bool) *sweepRun {
	n, cols := sig.mat.Rows(), sig.mat.Cols()
	r := &sweepRun{
		act:    make([]int, cols),
		out:    vecmath.NewMatrix(n, cols),
		sweeps: make([]int, cols),
		cur:    sig.mat.Clone(),
		e0:     sig.mat,
		res:    make([][]float64, workers),
	}
	for k := range r.act {
		r.act[k] = k
	}
	for w := range r.res {
		r.res[w] = make([]float64, cols)
	}
	if needNext {
		r.next = vecmath.NewMatrix(n, cols)
	}
	return r
}

// drive runs sweeps until every column has retired or maxSweeps is spent.
// Each sweep calls body once: it must advance the active block by one
// sweep in its visit order, raise the residual slots of every value it
// changes, and report how many nodes it visited and whether it is
// quiescent — it has no further work queued, which retires every remaining
// column (only the frontier orders ever are; the dense orders return
// false). A column otherwise retires the sweep its merged residual drops
// to thresh.
func (r *sweepRun) drive(p Params, thresh float64, maxSweeps int, body func() (visited int, quiescent bool)) (*Signal, Stats, error) {
	st := &r.st
	st.ColumnSweeps = r.sweeps
	out := &Signal{mat: r.out}
	if r.out.Rows() == 0 || r.out.Cols() == 0 {
		st.Converged = true
		return out, *st, nil
	}
	merged := make([]float64, r.out.Cols())
	var seenMsgs int64 // total already handed to the observer
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		visited, quiescent := body()

		// Merge the workers' residual maxima per active slot.
		cr := merged[:len(r.act)]
		vecmath.Zero(cr)
		for _, wr := range r.res {
			for j, v := range wr {
				if v > cr[j] {
					cr[j] = v
				}
			}
			vecmath.Zero(wr)
		}
		st.Sweeps = sweep
		st.Residual = maxOf(cr)
		if p.Observe != nil {
			p.Observe.ObserveSweep(SweepStat{
				Sweep: sweep, ActiveNodes: visited, ActiveColumns: len(cr),
				Residual: st.Residual, ResidualL1: sumOf(cr),
				Messages: st.Messages - seenMsgs,
			})
			seenMsgs = st.Messages
		}
		if quiescent {
			r.retireAll(sweep)
			st.Converged = true
			return out, *st, nil
		}
		r.retireSweep(cr, thresh, sweep)
		if len(r.act) == 0 {
			st.Converged = true
			return out, *st, nil
		}
	}
	r.retireAll(maxSweeps)
	return out, *st, fmt.Errorf("%w after %d sweeps (residual %g)", ErrNoConvergence, maxSweeps, st.Residual)
}

// retireSweep retires every active slot whose merged residual in cr
// dropped to thresh and compacts the block in place around the survivors.
// The first compaction copies e0 so the input signal stays read-only.
// next only narrows: its stale values are never read, because every body
// writes a next row before reading it within the sweep (SynchronousColumns
// writes every row; ParallelColumns writes, then reads, only frontier rows
// and swaps buffers only on a full round; the in-place orders have no
// next).
func (r *sweepRun) retireSweep(cr []float64, thresh float64, sweep int) {
	keep := make([]int, 0, len(cr))
	for k, v := range cr {
		if v <= thresh {
			r.finalize(k, sweep)
		} else {
			keep = append(keep, k)
		}
	}
	if len(keep) == len(cr) {
		return
	}
	for i, k := range keep {
		r.act[i] = r.act[k]
	}
	r.act = r.act[:len(keep)]
	if len(keep) == 0 {
		return
	}
	if !r.ownE0 {
		r.e0 = r.e0.Clone()
		r.ownE0 = true
	}
	r.cur.CompactColumns(keep)
	r.e0.CompactColumns(keep)
	if r.next != nil {
		r.next.Narrow(len(keep))
	}
	for w := range r.res {
		r.res[w] = r.res[w][:len(keep)]
	}
}

// retireAll finalizes every still-active column at sweep.
func (r *sweepRun) retireAll(sweep int) {
	for k := range r.act {
		r.finalize(k, sweep)
	}
	r.act = nil
}

// finalize retires active slot k at sweep: its column of cur is written
// straight into the output column and sweep becomes its
// Stats.ColumnSweeps entry.
func (r *sweepRun) finalize(k, sweep int) {
	orig := r.act[k]
	out, cur := r.out.Data(), r.cur.Data()
	ow, cw := r.out.Cols(), r.cur.Cols()
	for i := 0; i < r.out.Rows(); i++ {
		out[i*ow+orig] = cur[i*cw+k]
	}
	r.sweeps[orig] = sweep
}

// maxOf returns the largest value of v (0 for an empty slice).
func maxOf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
