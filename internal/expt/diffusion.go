package expt

import (
	"fmt"
	"time"

	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/ppr"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/stats"
	"diffusearch/internal/vecmath"
)

// DiffusionConfig parameterizes CompareDiffusionEngines: one realistic
// placement, then every engine diffuses the same personalization matrix.
type DiffusionConfig struct {
	M       int     // documents to place; 0 means min(1000, pool)
	Alpha   float64 // teleport probability; 0 means 0.5
	Tol     float64 // convergence tolerance; 0 means the engine default
	Workers int     // Parallel pool size; 0 means GOMAXPROCS
	Seed    uint64
	Engines []diffuse.Engine // nil means {Asynchronous, Parallel}
}

func (c DiffusionConfig) withDefaults(env *Environment) DiffusionConfig {
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.M <= 0 {
		c.M = 1000
	}
	if c.M > env.MaxPoolDocs() {
		c.M = env.MaxPoolDocs()
	}
	if len(c.Engines) == 0 {
		c.Engines = []diffuse.Engine{diffuse.EngineAsynchronous, diffuse.EngineParallel}
	}
	return c
}

// DiffusionRow reports one engine's run: cost model (updates, messages,
// sweeps), wall-clock time, and fidelity against the synchronous fixed
// point of eq. 7. ColumnSweeps is set only for the column-blocked signal
// rows, where per-column early termination makes sweep counts vary across
// the embedding dimensions.
type DiffusionRow struct {
	Engine        string
	Wall          time.Duration
	Sweeps        int
	Updates       int64
	Messages      int64
	Residual      float64
	MaxDiffVsSync float64
	Converged     bool
	ColumnSweeps  []int
}

// CompareDiffusionEngines places one realistic document set, computes E0,
// and runs every configured engine on the identical input, reporting cost
// and fidelity side by side. The first row is the reference engine for
// speedup comparisons.
func CompareDiffusionEngines(env *Environment, cfg DiffusionConfig) ([]DiffusionRow, error) {
	cfg = cfg.withDefaults(env)
	net := core.NewNetwork(env.Graph, env.Bench.Vocabulary())
	r := randx.Derive(cfg.Seed, "diffusion-engines")
	pair := env.Bench.SamplePair(r)
	docs := append([]retrieval.DocID{pair.Gold}, env.Bench.SamplePool(r, cfg.M-1)...)
	if err := net.PlaceDocuments(docs, core.UniformHosts(r, len(docs), env.Graph.NumNodes())); err != nil {
		return nil, err
	}
	if err := net.ComputePersonalization(); err != nil {
		return nil, err
	}
	e0 := net.PersonalizationMatrix()
	tr := net.Transition() // reuse the network's materialized CSR weights
	ref, _, err := (ppr.PPRFilter{Alpha: cfg.Alpha, Tol: 1e-12}).Apply(tr, e0)
	if err != nil {
		return nil, fmt.Errorf("expt: synchronous reference: %w", err)
	}
	rows := make([]DiffusionRow, 0, 2*len(cfg.Engines))
	for _, eng := range cfg.Engines {
		start := time.Now()
		out, st, err := diffuse.Run(eng, tr, e0, diffuse.Params{
			Alpha: cfg.Alpha, Tol: cfg.Tol, Workers: cfg.Workers,
		}, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("expt: engine %v: %w", eng, err)
		}
		rows = append(rows, DiffusionRow{
			Engine:        eng.String(),
			Wall:          time.Since(start),
			Sweeps:        st.Sweeps,
			Updates:       st.Updates,
			Messages:      st.Messages,
			Residual:      st.Residual,
			MaxDiffVsSync: vecmath.MaxAbsDiffMatrix(out, ref),
			Converged:     st.Converged,
		})
	}
	// Column-blocked rows: the same engines diffusing E0's dimensions as an
	// n×dim Signal with per-column residual tracking. The per-column sweep
	// counts make the batch kernels' early-terminated columns visible next
	// to the coupled matrix runs above.
	for _, eng := range cfg.Engines {
		start := time.Now()
		sig, st, err := diffuse.RunSignal(eng, tr, diffuse.NewSignal(e0), diffuse.Params{
			Alpha: cfg.Alpha, Tol: cfg.Tol, Workers: cfg.Workers,
		}, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("expt: engine %v (cols): %w", eng, err)
		}
		rows = append(rows, DiffusionRow{
			Engine:        eng.String() + "(cols)",
			Wall:          time.Since(start),
			Sweeps:        st.Sweeps,
			Updates:       st.Updates,
			Messages:      st.Messages,
			Residual:      st.Residual,
			MaxDiffVsSync: vecmath.MaxAbsDiffMatrix(sig.Matrix(), ref),
			Converged:     st.Converged,
			ColumnSweeps:  st.ColumnSweeps,
		})
	}
	return rows, nil
}

// SummarizeColumnSweeps renders per-column sweep counts as "min/med/max"
// ("-" when the row had no column tracking).
func SummarizeColumnSweeps(cols []int) string {
	if len(cols) == 0 {
		return "-"
	}
	vals := make([]float64, len(cols))
	for i, c := range cols {
		vals[i] = float64(c)
	}
	return fmt.Sprintf("%d/%d/%d", int(stats.Min(vals)), int(stats.Median(vals)), int(stats.Max(vals)))
}

// FormatDiffusion renders CompareDiffusionEngines rows; speedup is
// wall-clock relative to the first row, and col-sweeps summarizes the
// per-column sweep counts (min/med/max) of the column-blocked rows. The
// engine column clips through labelCell.
func FormatDiffusion(rows []DiffusionRow) *stats.Table {
	t := &stats.Table{Header: []string{"engine", "wall", "speedup", "sweeps", "col-sweeps", "updates", "messages", "max|Δ| vs sync"}}
	for _, r := range rows {
		speedup := "n/a"
		if r.Wall > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(rows[0].Wall)/float64(r.Wall))
		}
		t.AddRow(
			labelCell(r.Engine),
			r.Wall.Round(time.Microsecond).String(),
			speedup,
			fmt.Sprintf("%d", r.Sweeps),
			SummarizeColumnSweeps(r.ColumnSweeps),
			fmt.Sprintf("%d", r.Updates),
			fmt.Sprintf("%d", r.Messages),
			fmt.Sprintf("%.2g", r.MaxDiffVsSync),
		)
	}
	return t
}
