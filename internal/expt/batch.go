package expt

import (
	"fmt"
	"time"

	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/stats"
)

// BatchConfig parameterizes BatchScaling: one realistic placement, then the
// same query workload scored through ScoreBatch at increasing batch widths.
type BatchConfig struct {
	M       int     // documents to place; 0 means min(1000, pool)
	Alpha   float64 // teleport probability; 0 means 0.5
	Tol     float64 // per-column tolerance; 0 means core.DefaultScoreTol
	Workers int     // Parallel pool size; 0 means GOMAXPROCS
	Seed    uint64
	Engine  diffuse.Engine // 0 means Parallel (the ScoreBatch default)
	Sizes   []int          // batch widths; nil means {1, 4, 16, 64}
}

func (c BatchConfig) withDefaults(env *Environment) BatchConfig {
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.M <= 0 {
		c.M = 1000
	}
	if c.M > env.MaxPoolDocs() {
		c.M = env.MaxPoolDocs()
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1, 4, 16, 64, 256, 512}
	}
	return c
}

// BatchRow reports one batch width: amortized cost per query (the batch
// engine streams each CSR row once per node per batch, so ns/query and
// messages/query fall as B grows) plus the per-column sweep spread showing
// early-terminated columns.
type BatchRow struct {
	B                int
	Wall             time.Duration // one ScoreBatch call over the B queries
	NsPerQuery       float64
	MessagesPerQuery float64
	Sweeps           int
	ColumnSweeps     []int
}

// BatchScaling measures ScoreBatch amortization: B distinct benchmark
// queries scored in one multi-column diffusion, for each configured batch
// width, on one shared placement. The first row (smallest width, typically
// B=1) is the sequential baseline for the speedup column of FormatBatch;
// cmd/benchjson records the statistically stable version of the same
// comparison in BENCH_diffuse.json.
func BatchScaling(env *Environment, cfg BatchConfig) ([]BatchRow, error) {
	cfg = cfg.withDefaults(env)
	net := core.NewNetwork(env.Graph, env.Bench.Vocabulary())
	r := randx.Derive(cfg.Seed, "batch-scaling")
	pair := env.Bench.SamplePair(r)
	docs := append([]retrieval.DocID{pair.Gold}, env.Bench.SamplePool(r, cfg.M-1)...)
	if err := net.PlaceDocuments(docs, core.UniformHosts(r, len(docs), env.Graph.NumNodes())); err != nil {
		return nil, err
	}
	if err := net.ComputePersonalization(); err != nil {
		return nil, err
	}
	maxB := 0
	for _, b := range cfg.Sizes {
		if b < 1 {
			return nil, fmt.Errorf("expt: batch width %d out of range", b)
		}
		if b > maxB {
			maxB = b
		}
	}
	queries := make([][]float64, maxB)
	for j := range queries {
		queries[j] = env.Bench.Vocabulary().Vector(env.Bench.SamplePair(r).Query)
	}
	req := core.DiffusionRequest{
		Engine: cfg.Engine, Alpha: cfg.Alpha, Tol: cfg.Tol,
		Workers: cfg.Workers, Seed: cfg.Seed,
	}
	rows := make([]BatchRow, 0, len(cfg.Sizes))
	for _, b := range cfg.Sizes {
		start := time.Now()
		_, st, err := net.ScoreBatch(queries[:b], req)
		if err != nil {
			return nil, fmt.Errorf("expt: batch B=%d: %w", b, err)
		}
		wall := time.Since(start)
		rows = append(rows, BatchRow{
			B:                b,
			Wall:             wall,
			NsPerQuery:       float64(wall.Nanoseconds()) / float64(b),
			MessagesPerQuery: float64(st.Messages) / float64(b),
			Sweeps:           st.Sweeps,
			ColumnSweeps:     st.ColumnSweeps,
		})
	}
	return rows, nil
}

// FormatBatch renders BatchScaling rows; speedup/query is amortized cost
// relative to the first row's per-query cost.
func FormatBatch(rows []BatchRow) *stats.Table {
	t := &stats.Table{Header: []string{"B", "wall", "ns/query", "speedup/query", "msgs/query", "sweeps", "col-sweeps"}}
	for _, r := range rows {
		speedup := "n/a"
		if r.NsPerQuery > 0 {
			speedup = fmt.Sprintf("%.2fx", rows[0].NsPerQuery/r.NsPerQuery)
		}
		t.AddRow(
			fmt.Sprintf("%d", r.B),
			r.Wall.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", r.NsPerQuery),
			speedup,
			fmt.Sprintf("%.0f", r.MessagesPerQuery),
			fmt.Sprintf("%d", r.Sweeps),
			SummarizeColumnSweeps(r.ColumnSweeps),
		)
	}
	return t
}
