package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"diffusearch/internal/diffuse"
	"diffusearch/internal/graph"
	"diffusearch/internal/ppr"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/vecmath"
)

// DefaultScoreTol is the per-column convergence tolerance ScoreBatch uses
// when the request leaves Tol zero. Scoring keeps the ppr.PPRFilter
// precision (ppr.DefaultTol, the single authoritative constant) on every
// engine, so switching engines never loosens query relevances silently.
const DefaultScoreTol = ppr.DefaultTol

// ServeClass is the scheduling class a serving-layer request belongs to.
// Interactive queries want low tail latency (they jump into the next
// dispatching batch); Bulk queries — prewarms, re-embedding sweeps,
// analytics — trade latency for batch width. The diffusion engines ignore
// the class; the serve layer stamps it on every dispatched request so
// stats and traces identify what a batch was dispatched for.
type ServeClass uint8

const (
	// ClassInteractive is the zero value: latency-sensitive traffic.
	ClassInteractive ServeClass = iota
	// ClassBulk marks width-filling background traffic.
	ClassBulk
	// NumServeClasses bounds per-class arrays (histograms, quantiles).
	NumServeClasses = iota
)

// String renders the class for logs and flags.
func (c ServeClass) String() string {
	switch c {
	case ClassInteractive:
		return "interactive"
	case ClassBulk:
		return "bulk"
	}
	return fmt.Sprintf("ServeClass(%d)", uint8(c))
}

// DiffusionRequest is the single dispatch struct behind every diffusion on
// a Network: embedding diffusion (Run) and batch query scoring
// (ScoreBatch).
type DiffusionRequest struct {
	// Engine selects the diffusion driver; the zero value selects
	// diffuse.EngineParallel, the fast path for serving.
	Engine diffuse.Engine
	// Alpha is the PPR teleport probability (required, in (0,1]).
	Alpha float64
	// Tol is the max-norm convergence tolerance; 0 selects the engine
	// default in Run (sync 1e-8, async/parallel 1e-6) and DefaultScoreTol
	// in ScoreBatch.
	Tol float64
	// MaxSweeps bounds sweeps/rounds; 0 selects the engine default.
	MaxSweeps int
	// Workers sizes the Parallel and ParallelGS engines' pools; 0 means
	// GOMAXPROCS.
	Workers int
	// Seed drives the Asynchronous engine's update schedule; the other
	// engines are schedule-independent and ignore it.
	Seed uint64
	// Filter, when non-nil, overrides Engine with an arbitrary low-pass
	// graph filter (§II-C; e.g. ppr.HeatKernelFilter). Filter runs have no
	// per-column early termination.
	// Filters always run on the network's full CSR: they are defined over
	// the whole operator, so an installed scoring backend does not apply.
	Filter ppr.Filter
	// Class tags the scheduling class of a serving-layer dispatch: the
	// serve.Scheduler stamps ClassBulk on batches whose every column is
	// width-filling background work (prewarms, analytics) and
	// ClassInteractive otherwise. The engines ignore it.
	Class ServeClass
	// Observer, when non-nil, taps the convergence profile: the column
	// kernels behind Run and ScoreBatch deliver one diffuse.SweepStat per
	// sweep (frontier size, residual mass, per-sweep message traffic) to
	// it. Strictly read-only — an observed run is bit-identical to an
	// unobserved one — and handed to the scoring backend with the rest of
	// the engine parameters.
	Observer diffuse.Observer
}

// engine resolves the default driver.
func (r DiffusionRequest) engine() diffuse.Engine {
	if r.Engine == 0 {
		return diffuse.EngineParallel
	}
	return r.Engine
}

// params converts the request to engine parameters.
func (r DiffusionRequest) params() diffuse.Params {
	return diffuse.Params{Alpha: r.Alpha, Tol: r.Tol, MaxSweeps: r.MaxSweeps, Workers: r.Workers, Observe: r.Observer}
}

// projectMinRange is the fewest host rows one projection range takes.
const projectMinRange = 32

// projectQueries builds the n×B relevance signal x_j[v] = e_qj · E0[v] that
// ScoreBatch diffuses, computing only the host rows (see ScoreBatch). A
// zero E0 row keeps the +0 of the fresh matrix, which is what its dot
// product with a finite query gives.
func (n *Network) projectQueries(queries [][]float64, workers int) (*vecmath.Matrix, error) {
	if n.perso == nil {
		return nil, ErrNoPersonalization
	}
	if n.scorer != retrieval.DotProduct {
		return nil, fmt.Errorf("core: fast scoring requires the dot-product scorer, have %v", n.scorer)
	}
	dim := n.vocab.Dim()
	for j, q := range queries {
		if len(q) != dim {
			return nil, fmt.Errorf("core: query %d has %d dims, vocabulary has %d", j, len(q), dim)
		}
		for i, v := range q {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("core: query %d has non-finite value %v in dimension %d", j, v, i)
			}
		}
	}
	x := vecmath.NewMatrix(n.g.NumNodes(), len(queries))
	project := func(rows []int) {
		for _, u := range rows {
			vecmath.DotColumns(x.Row(u), queries, n.perso.Row(u))
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parts := max(1, min(workers, len(n.hosts)/projectMinRange))
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for p := 1; p < parts; p++ {
		go func() {
			defer wg.Done()
			project(n.hosts[p*len(n.hosts)/parts : (p+1)*len(n.hosts)/parts])
		}()
	}
	project(n.hosts[:len(n.hosts)/parts])
	wg.Wait()
	return x, nil
}

// filterStats maps filter iteration statistics onto the engine Stats shape
// (a synchronous filter iteration is one sweep per iteration).
func filterStats(st ppr.Stats) diffuse.Stats {
	return diffuse.Stats{Sweeps: st.Iterations, Residual: st.Residual, Converged: st.Converged}
}

// EngineFilter adapts a DiffusionRequest to the ppr.Filter interface, so
// engine-backed diffusion can be handed to any code that composes graph
// filters. The adapter direction lives here (not in ppr) because ppr must
// not import diffuse.
func EngineFilter(req DiffusionRequest) ppr.Filter {
	return ppr.FilterFunc(func(tr *graph.Transition, e0 *vecmath.Matrix) (*vecmath.Matrix, ppr.Stats, error) {
		out, st, err := diffuse.Run(req.engine(), tr, e0, req.params(), req.Seed)
		return out, ppr.Stats{Iterations: st.Sweeps, Residual: st.Residual, Converged: st.Converged}, err
	})
}

// Run executes one embedding diffusion described by req and stores the
// diffused embeddings: the network's E0 personalization matrix is smoothed
// by the selected engine (or req.Filter) and subsequent NodeScores /
// RunQuery calls read the result. Alpha is recorded for fast scoring
// unless a Filter ran.
func (n *Network) Run(req DiffusionRequest) (diffuse.Stats, error) {
	if n.perso == nil {
		return diffuse.Stats{}, ErrNoPersonalization
	}
	if req.Filter != nil {
		emb, pst, err := req.Filter.Apply(n.tr, n.perso)
		if err != nil {
			return filterStats(pst), err
		}
		n.emb = emb
		return filterStats(pst), nil
	}
	emb, st, err := n.scoring.Diffuse(n.perso, req.engine(), req.params(), req.Seed)
	if err != nil {
		return st, err
	}
	n.emb = emb
	return st, nil
}

// ScoreBatch scores every node for a batch of B queries in one diffusion:
// it projects the personalization matrix onto each query (x_j[v] = e_qj ·
// E0[v]), assembles the n×B relevance Signal, diffuses it column-blocked
// on the selected engine (default Parallel), and returns one per-node
// score slice per query. By linearity s[u] = e_q·(H·E0)[u] = (H·x)[u], so
// no diffused embeddings are materialized; a single sync column is
// bit-compatible with ppr.PPRFilter. Compared to B single-query calls this
// streams each CSR row once per node per batch instead of once per query,
// and early-terminated columns (see Stats.ColumnSweeps) stop costing work
// while slower ones finish.
//
// The projection computes only the E0 rows that hold a nonzero value (the
// nodes storing documents); the rest of x is zero. Those rows are split
// into contiguous ranges of at least projectMinRange rows over up to
// req.Workers goroutines (0 means GOMAXPROCS), so a small network projects
// on the caller alone. Each row is one vecmath.DotColumns call, so the
// result is bit-identical to projecting every row.
//
// Requires the DotProduct scorer and computed personalization, and finite
// queries: a NaN or ±Inf query value is an error naming the query and the
// dimension. Tol 0 selects DefaultScoreTol on every engine.
func (n *Network) ScoreBatch(queries [][]float64, req DiffusionRequest) ([][]float64, diffuse.Stats, error) {
	x, err := n.projectQueries(queries, req.Workers)
	if err != nil {
		return nil, diffuse.Stats{}, err
	}
	nn := n.g.NumNodes()
	b := len(queries)
	if req.Tol <= 0 {
		req.Tol = DefaultScoreTol
	}
	var (
		out *vecmath.Matrix
		st  diffuse.Stats
	)
	if req.Filter != nil {
		var pst ppr.Stats
		out, pst, err = req.Filter.Apply(n.tr, x)
		st = filterStats(pst)
	} else {
		var sig *diffuse.Signal
		sig, st, err = n.scoring.DiffuseSignal(diffuse.NewSignal(x), req.engine(), req.params(), req.Seed)
		if sig != nil {
			out = sig.Matrix()
		}
	}
	if err != nil {
		return nil, st, err
	}
	scores := make([][]float64, b)
	for j := range scores {
		scores[j] = make([]float64, nn)
	}
	for u := 0; u < nn; u++ {
		row := out.Row(u)
		for j, v := range row {
			scores[j][u] = v
		}
	}
	return scores, st, nil
}
