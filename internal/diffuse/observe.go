package diffuse

// SweepStat is one per-sweep observation delivered to an Observer by the
// column kernels. Counters are per-sweep deltas, not running totals: one
// observer instance is routinely shared across concurrent engine runs
// (every batch a scheduler dispatches carries the same Params.Observe) and
// could not recover deltas from cumulative values. Summing a run's
// Messages deltas reproduces its final Stats.Messages exactly — the
// first sweep's delta includes any bootstrap announcement the frontier
// engines charge before their first round.
type SweepStat struct {
	// Sweep is the 1-based sweep (or frontier round) index, matching
	// Stats.Sweeps.
	Sweep int
	// ActiveNodes is the size of the frontier processed this sweep: the
	// whole graph for the dense kernels, the Gauss–Southwell frontier
	// for the residual-driven parallel kernels.
	ActiveNodes int
	// ActiveColumns is the number of unretired signal columns entering
	// this sweep.
	ActiveColumns int
	// Residual is the max-norm residual over the active columns after
	// this sweep — the value the tolerance check sees.
	Residual float64
	// ResidualL1 is the per-column residuals summed over the active
	// columns (the same certificates retirement uses, not an O(n·w)
	// rescan), a scalar convergence profile for the whole block.
	ResidualL1 float64
	// Messages is the number of embedding messages exchanged during this
	// sweep alone.
	Messages int64
}

// Observer receives one SweepStat per sweep from the column kernels when
// installed via Params.Observe. It is invoked once per sweep/round, after
// the iterate is consistent and before residual retirement, on the
// engine's coordinating goroutine — never from inside a worker. It is
// strictly read-only: an observer can watch scores, residuals, and
// traffic but can never perturb them, so an observed run is bit-identical
// (scores, sweep counts, retirement decisions) to an unobserved one.
// Implementations must be fast and must not block; a nil Params.Observe
// costs the hot path exactly one nil check per sweep. Synchronous, which
// delegates to ppr.PPRFilter, ignores observers; every other entry point
// is a column-kernel run and reports.
type Observer interface {
	ObserveSweep(SweepStat)
}

// sumOf returns the sum of v — the ResidualL1 reduction, only evaluated
// when an observer is attached.
func sumOf(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
