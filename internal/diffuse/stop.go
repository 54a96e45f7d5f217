package diffuse

import "diffusearch/internal/vecmath"

// StopPredicate is the pluggable early-termination contract of the
// column-blocked Signal kernels: after every sweep/round, the engine shows
// the predicate the active block and the predicate names the columns that
// may stop before their residual reaches the convergence tolerance.
//
// This is how a caller that does not need the fully converged vector — the
// bidirectional top-k path of internal/topk, which only needs the ranking
// of a candidate set to be provably stable — cuts the forward work short:
// converging mass that cannot change the answer is never pushed. The
// predicate carries its own per-column state (certificates, check
// throttling); the engine's only obligations are the call protocol below.
//
// Call protocol, identical on every engine:
//
//   - Stop(sweep, act, cur) is called once per sweep (Sync/Async/GS) or
//     frontier round (Parallel), after the iterate is consistent and before
//     the engine's own residual-based retirement. The sweep driver makes
//     one such call per live column tile within the sweep (one tile by
//     default, several under Params.ColTile), each covering that tile's
//     slots — the union of a sweep's calls sees exactly the active block
//     once.
//   - act maps the active block's compact slots to original column indices
//     (it shrinks as columns retire); cur is the n×len(act) current iterate
//     whose column k holds original column act[k]. With several tiles act
//     and cur describe one tile.
//   - The returned slice flags compact slots to retire now: stop[k] retires
//     original column act[k] with its current values. nil (or all-false)
//     stops nothing. The engine reads the slice before the next sweep; the
//     predicate may reuse its backing array.
//
// A column stopped by the predicate is finalized exactly like a converged
// one (its values at the stop sweep become the output, its sweep count is
// recorded in Stats.ColumnSweeps); the run's Converged flag still reports
// whether the whole block emptied within the sweep budget. The predicate
// must not mutate cur — it aliases engine state.
type StopPredicate interface {
	Stop(sweep int, act []int, cur *vecmath.Matrix) []bool
}
