package diffuse

import (
	"fmt"

	"diffusearch/internal/vecmath"
)

// The sweep driver. Every engine is the same iteration — eq. 7 applied to
// a column block until each column's residual settles — and the engines
// differ only in the order one sweep visits the nodes (the orderings of
// one update catalogued by the PPR survey, arXiv 2403.05198). sweepRun
// owns everything that does not depend on that order: the column plan and
// its per-sweep coalescing, the residual merge in compact slot order,
// Stats, the Observer call, per-tile retirement, quiescence, and the
// no-convergence exit. An engine supplies its visit
// order as the per-sweep body handed to drive:
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
	ts *tileSet
	// live holds this sweep's tiles with active columns, in column order.
	// The body raises each tile's per-worker residual slots (colTile.res)
	// for every value it changes; drive merges and clears them.
	live []*colTile
	// st accumulates the run's Stats. The body adds Updates and Messages;
	// drive owns the rest. Traffic charged before the first
	// sweep (the frontier engines' bootstrap announcement) is set on st
	// before drive and reaches the observer with the first sweep's delta.
	st Stats
}

// newSweepRun lays sig out as column tiles of the planned widths for a run
// whose body writes residuals from workers goroutines. needNext allocates
// the double-buffer matrices of the barrier engines; the in-place engines
// pass false.
func newSweepRun(sig *Signal, widths []int, workers int, needNext bool) *sweepRun {
	return &sweepRun{ts: newTileSet(sig, widths, workers, needNext)}
}

// drive runs sweeps until every column has retired or maxSweeps is spent.
// Each sweep calls body once: it must advance every live tile by one sweep
// in its visit order, raise the residual slots of every value it changes,
// and report how many nodes it visited and whether it is quiescent — it
// has no further work queued, which retires every remaining column (only
// the frontier orders ever are; the dense orders return false). A column
// otherwise retires the sweep its merged residual drops to thresh.
func (r *sweepRun) drive(p Params, thresh float64, maxSweeps int, body func() (visited int, quiescent bool)) (*Signal, Stats, error) {
	ts, st := r.ts, &r.st
	st.ColumnSweeps = ts.sweeps
	out := &Signal{mat: ts.out}
	if ts.out.Rows() == 0 || ts.out.Cols() == 0 {
		st.Converged = true
		return out, *st, nil
	}
	merged := make([]float64, ts.out.Cols())
	var seenMsgs int64 // total already handed to the observer
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		r.live = ts.live(r.live)
		visited, quiescent := body()

		// Merge the workers' residual maxima into the compact slot layout
		// (the live tiles' active columns concatenated in column order), so
		// Residual and ResidualL1 aggregate in the same order for every
		// column plan — bit-identical sums, not just equal values.
		w := 0
		for _, t := range r.live {
			cr := merged[w : w+t.width()]
			vecmath.Zero(cr)
			for _, wr := range t.res {
				for j, v := range wr {
					if v > cr[j] {
						cr[j] = v
					}
				}
				vecmath.Zero(wr)
			}
			w += len(cr)
		}
		cr := merged[:w]
		st.Sweeps = sweep
		st.Residual = maxOf(cr)
		if p.Observe != nil {
			p.Observe.ObserveSweep(SweepStat{
				Sweep: sweep, ActiveNodes: visited, ActiveColumns: w,
				Residual: st.Residual, ResidualL1: sumOf(cr),
				Messages: st.Messages - seenMsgs,
			})
			seenMsgs = st.Messages
		}
		if quiescent {
			ts.retireAll(sweep)
			st.Converged = true
			return out, *st, nil
		}
		for _, t := range r.live {
			tw := t.width()
			t.retireSweep(cr[:tw], thresh, sweep)
			cr = cr[tw:]
		}
		if ts.activeWidth() == 0 {
			st.Converged = true
			return out, *st, nil
		}
	}
	ts.retireAll(maxSweeps)
	return out, *st, fmt.Errorf("%w after %d sweeps (residual %g)", ErrNoConvergence, maxSweeps, st.Residual)
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
