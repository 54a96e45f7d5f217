package telemetry

import "diffusearch/internal/diffuse"

// DiffusionMetrics adapts a Registry to diffuse.Observer: every observed
// sweep feeds the sweep/message counters and the convergence-profile
// histograms (frontier size, active columns, residual mass). One
// instance is safe to share across every engine run in the process —
// all sinks are atomic — which is exactly how peerd wires it: a single
// observer in the scheduler's DiffusionRequest covers every batch.
type DiffusionMetrics struct {
	sweeps   *Counter
	messages *Counter
	frontier *Histogram
	columns  *Histogram
	residual *Histogram
}

// NewDiffusionMetrics registers the diffusion metric families on r and
// returns the observer feeding them.
func NewDiffusionMetrics(r *Registry) *DiffusionMetrics {
	return &DiffusionMetrics{
		sweeps: r.Counter("diffusearch_diffusion_sweeps_total",
			"Diffusion sweeps/rounds executed, across all engine runs."),
		messages: r.Counter("diffusearch_diffusion_messages_total",
			"Embedding messages exchanged, summed per sweep."),
		frontier: r.Histogram("diffusearch_diffusion_frontier_nodes",
			"Active-frontier size per sweep.", ExpBuckets(1, 4, 10)),
		columns: r.Histogram("diffusearch_diffusion_active_columns",
			"Unretired signal columns per sweep.", ExpBuckets(1, 2, 9)),
		residual: r.Histogram("diffusearch_diffusion_residual_l1",
			"Residual L1 mass per sweep.", ExpBuckets(1e-9, 10, 12)),
	}
}

// ObserveSweep implements diffuse.Observer.
func (m *DiffusionMetrics) ObserveSweep(s diffuse.SweepStat) {
	m.sweeps.Inc()
	if s.Messages > 0 {
		m.messages.Add(uint64(s.Messages))
	}
	m.frontier.Observe(float64(s.ActiveNodes))
	m.columns.Observe(float64(s.ActiveColumns))
	m.residual.Observe(s.ResidualL1)
}
