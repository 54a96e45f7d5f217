package diffuse

import (
	"sync/atomic"

	"diffusearch/internal/graph"
	"diffusearch/internal/vecmath"
)

// Multi-color Gauss–Seidel: the engine behind EngineParallelGS.
//
// The Parallel engine's frontier rounds are block Jacobi — every update in
// a round reads the previous round's values — so it pays Jacobi's sweep
// count for Jacobi's parallelism. Sequential Gauss–Seidel (the
// Asynchronous engine) converges in fewer sweeps because each update reads
// the freshest values, but its schedule is inherently serial. Multi-color
// GS splits the difference (the ordered-push observation of the PPR
// survey, arXiv 2403.05198): the graph is colored so no class contains an
// edge (graph.Transition.Coloring), and one sweep processes the classes in
// fixed ascending order with a barrier between them. Within a class no
// node reads another — every input was fixed at the class barrier — so
// workers can split the class arbitrarily and the result is deterministic
// for every worker count; across classes updates see the freshest values,
// recovering Gauss–Seidel's sweep count.

// ParallelGSColumns diffuses a column block with the deterministic
// multi-color Gauss–Seidel engine: per sweep, each color class is updated
// in parallel (in place, like the Asynchronous engine), per-column
// residuals are tracked across the whole sweep, and columns retire the
// sweep their residual first drops to tol. Results are identical for
// every worker count.
func ParallelGSColumns(tr *graph.Transition, sig *Signal, p Params) (*Signal, Stats, error) {
	n, err := checkSignal(tr, sig, p)
	if err != nil {
		return nil, Stats{}, err
	}
	tol, maxSweeps := p.controls()
	workers := p.poolSize(n)
	edgeMsgs := 2 * int64(tr.Graph().NumEdges()) // each node pulls its neighbourhood once per sweep
	classes := tr.Coloring().Classes()
	pool := newWorkerPool(workers)
	defer pool.close()
	var cursor atomic.Int64

	r := newSweepRun(sig, workers, false)
	scratch := make([][]float64, workers)
	for w := range scratch {
		scratch[w] = make([]float64, sig.Columns())
	}
	return r.drive(p, tol, maxSweeps, func() (int, bool) {
		for _, class := range classes {
			cursor.Store(0)
			pool.run(func(id int) {
				forEachClaimed(&cursor, len(class), func(lo, hi int) {
					cr := r.res[id]
					sc := scratch[id][:len(cr)]
					for _, u := range class[lo:hi] {
						tr.ApplyRowAffine(sc, u, 1-p.Alpha, r.cur, p.Alpha, r.e0.Row(u))
						vecmath.ResidMaxCopy(cr, r.cur.Row(u), sc)
					}
				})
			})
		}
		r.st.Updates += int64(n)
		r.st.Messages += edgeMsgs
		return n, false
	})
}

// ParallelGS runs the multi-color Gauss–Seidel engine in matrix mode: the
// embedding-diffusion entry point behind Run(EngineParallelGS). It is
// ParallelGSColumns over the embedding dimensions — the sweep schedule is
// identical; converged dimensions freeze individually (within tol of the
// joint fixed point, like every column kernel) instead of sweeping until
// the slowest one finishes.
//
// The returned matrix holds one diffused node embedding per row. The
// input e0 is not modified.
func ParallelGS(tr *graph.Transition, e0 *vecmath.Matrix, p Params) (*vecmath.Matrix, Stats, error) {
	return matrixOf(ParallelGSColumns(tr, NewSignal(e0), p))
}
