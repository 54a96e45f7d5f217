package serve

import "time"

// Path attributes how one submission resolved — which of the serving
// pipeline's exits the query actually took. Values are stable strings so
// they can label metrics directly.
type Path string

const (
	// PathCacheHit: answered from the LRU — at admission (Wait zero) or
	// while queued (a Warm or an earlier batch landed the column first).
	PathCacheHit Path = "cache_hit"
	// PathScored: the representative full-vector column of a dispatched
	// ScoreBatch.
	PathScored Path = "scored"
	// PathDedup: coalesced onto another waiter's identical column — the
	// query rode a batch but cost no column of its own.
	PathDedup Path = "dedup"
	// PathShed: deadline expired before dispatch (ErrDeadlineMissed).
	PathShed Path = "shed"
	// PathRejected: the caller gave up while the bounded queue was full
	// (backpressure).
	PathRejected Path = "rejected"
	// PathCancelled: the caller's context cancelled before dispatch.
	PathCancelled Path = "cancelled"
	// PathError: the backend call for the query's batch failed.
	PathError Path = "error"
)

// Paths lists every attribution value, in display order — for
// pre-registering per-path metric series.
var Paths = []Path{
	PathCacheHit, PathScored, PathDedup,
	PathShed, PathRejected, PathCancelled, PathError,
}

// Trace is one submission's end-to-end serving record, delivered to
// Config.OnTrace when the query resolves. Wait covers admission to
// dispatch start (what MaxWait bounds; zero for admission fast paths),
// Score the backend call of the batch the query rode (shared by every
// co-rider, zero for unscored paths). Batch is that batch's column
// width and Sweeps its whole-batch diffusion rounds.
type Trace struct {
	Path   Path
	Class  Class
	Wait   time.Duration
	Score  time.Duration
	Batch  int
	Sweeps int
	Err    error
}

// trace hands one record to the configured sink. Nil sink costs exactly
// this nil check per resolved query.
func (s *Scheduler) trace(t Trace) {
	if fn := s.cfg.OnTrace; fn != nil {
		fn(t)
	}
}
