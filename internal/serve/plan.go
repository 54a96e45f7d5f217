package serve

import (
	"sort"
	"time"
)

// This file is the scheduler's pure planning core: given the queries
// currently inside the coalesce window, decide when the window closes
// (window), which queries ride the next dispatching batch (selectBatch),
// and which queued queries have outlived their deadline (expired). The
// collector goroutine in serve.go calls these against the wall clock; the
// deterministic-interleaving tests in plan_sim_test.go call the very same
// functions against internal/sim's discrete-event clock, so batch
// compositions are asserted exactly, with no sleeps and no flakes.

// deadlineSlack is how long before a member's deadline its coalesce
// window closes. Closing exactly at the deadline would be useless: the
// timer fires, selection and dispatch entry cost microseconds more, and
// the shed check would reject the very query the window was tightened
// for. The slack buys the dispatch its head start (it also covers
// scheduler noise on a loaded box); a deadline tighter than the slack
// closes the window immediately.
const deadlineSlack = time.Millisecond

// window computes when the coalesce window over buf closes and whether it
// may close early once no submitter is en route (the idle fast path).
//
// Every member contributes an expiry: Interactive queries spend at most
// MaxWait waiting for co-riders (the PR 3 contract), Bulk queries at most
// BulkMaxWait (they volunteer to wait longer so batches widen), and a
// member's Deadline — minus deadlineSlack — caps either budget: an urgent
// deadline pulls the whole window shut early enough that the query
// dispatches before it expires (the deadline-jump). The window closes at
// the earliest expiry.
//
// idleClose is true when any Interactive member is present: for such
// windows, waiting while nobody else is en route buys no amortization, so
// the collector dispatches immediately (exactly the pre-priority
// behaviour, since every zero-valued SubmitOpts is Interactive). An
// all-Bulk window holds even on an idle scheduler — widening is the whole
// point of the Bulk class.
func window(buf []*pending, cfg Config) (closeAt time.Time, idleClose bool) {
	for _, p := range buf {
		exp := p.enq.Add(cfg.MaxWait)
		if p.class == Bulk {
			exp = p.enq.Add(cfg.BulkMaxWait)
		} else {
			idleClose = true
		}
		if !p.deadline.IsZero() {
			if jump := p.deadline.Add(-deadlineSlack); jump.Before(exp) {
				exp = jump
			}
		}
		if closeAt.IsZero() || exp.Before(closeAt) {
			closeAt = exp
		}
	}
	return closeAt, idleClose
}

// classRank orders classes at selection time: the starvation valve's
// elevated Bulk query first (ahead even of deadlined Interactive traffic —
// the valve is the bound, so nothing may outrank it or sustained deadlined
// load would starve Bulk forever), then Interactive, then Bulk.
func classRank(p, elevated *pending) int {
	if p == elevated {
		return -1
	}
	if p.class != Bulk {
		return 0
	}
	return 1
}

// planLess is the selection order within the coalesce window:
// earliest-deadline-first within class rank, deadline-less queries after
// deadlined ones of the same rank, and arrival order (stable sort) breaking
// every remaining tie — so a window of zero-valued SubmitOpts is plain
// FIFO, bit-for-bit the pre-priority order.
func planLess(a, b, elevated *pending) bool {
	ra, rb := classRank(a, elevated), classRank(b, elevated)
	if ra != rb {
		return ra < rb
	}
	switch {
	case a.deadline.IsZero() && b.deadline.IsZero():
		return false // stable: arrival order
	case a.deadline.IsZero():
		return false
	case b.deadline.IsZero():
		return true
	}
	return a.deadline.Before(b.deadline)
}

// selectBatch splits the coalesce window into the dispatching batch and
// the carry-over. A window that fits MaxBatch dispatches whole in arrival
// order (no reorder — identical to pre-priority behaviour). An overflowing
// window is stable-sorted by planLess, the first MaxBatch dispatch, and
// the rest carry to the next window with their pass counters bumped.
//
// The starvation valve: the longest-waiting Bulk query passed over
// BulkEvery selections is elevated ahead of the whole window — one per
// selection, deliberately. A whole burst crosses the pass budget together,
// and elevating it wholesale would flood the very next batch with bulk
// again (priority inversion re-created by the fairness mechanism); one
// valve slot per selection drains an over-budget backlog at a bounded,
// width-preserving rate while keeping the per-query bound: the oldest
// waiter dispatches within BulkEvery+1 selections of entering the window
// (even against sustained deadlined Interactive load), the k-th oldest
// within O(k) more. promoted reports that the valve fired.
func selectBatch(buf []*pending, cfg Config) (batch, rest []*pending, promoted int) {
	if len(buf) <= cfg.MaxBatch {
		return buf, nil, 0
	}
	var elevated *pending
	for _, p := range buf {
		// The longest-waiting over-budget Bulk query is the one with the
		// most passes — buf order alone is not enough, because the carry
		// is planLess-sorted (a deadlined Bulk query can sit ahead of an
		// older deadline-less one and would otherwise hog the valve).
		if p.class == Bulk && p.passes >= cfg.BulkEvery &&
			(elevated == nil || p.passes > elevated.passes) {
			elevated = p
		}
	}
	ordered := append(make([]*pending, 0, len(buf)), buf...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return planLess(ordered[i], ordered[j], elevated)
	})
	batch, rest = ordered[:cfg.MaxBatch:cfg.MaxBatch], ordered[cfg.MaxBatch:]
	for _, p := range rest {
		p.passes++
	}
	if elevated != nil {
		// Rank -1 sorts the elevated query to the front, so it is always
		// in the batch: the valve fired.
		promoted = 1
	}
	return batch, rest, promoted
}

// expired reports whether p's deadline has passed at now: such a query is
// shed before dispatch — rejected with ErrDeadlineMissed, never scored,
// counted in Stats.DeadlineMissed.
func expired(p *pending, now time.Time) bool {
	return !p.deadline.IsZero() && !now.Before(p.deadline)
}
