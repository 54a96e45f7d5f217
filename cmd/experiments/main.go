// Command experiments regenerates every table and figure of the paper's
// evaluation (§V) plus the repo's ablation extensions (see ROADMAP.md).
//
// Usage:
//
//	experiments -exp fig3                 # Fig. 3a–d (accuracy vs distance)
//	experiments -exp table1               # Table I (hop counts)
//	experiments -exp all                  # everything below, in this order
//	experiments -exp parallel|recall|placement|summary|visited|baselines|norm|fanout
//	experiments -quick                    # scaled-down environment & iterations
//	experiments -seed 7 -iters 200 -csv   # tuning & CSV output
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"diffusearch/internal/core"
	"diffusearch/internal/expt"
	"diffusearch/internal/stats"
)

// experiment is one -exp name and the runner method that regenerates it.
type experiment struct {
	name string
	run  func(*runner) error
}

// experiments lists every experiment in the order -exp all runs them; the
// flag help and the unknown-name error list them in the same order.
var experiments = []experiment{
	{"fig3", (*runner).fig3},
	{"table1", (*runner).table1},
	{"parallel", (*runner).parallel},
	{"recall", (*runner).recall},
	{"placement", (*runner).placement},
	{"summary", (*runner).summary},
	{"visited", (*runner).visited},
	{"baselines", (*runner).baselines},
	{"norm", (*runner).norm},
	{"fanout", (*runner).fanout},
}

// experimentNames returns the accepted -exp values, "all" last.
func experimentNames() string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), "|")
}

// selectExperiments resolves an -exp value to the experiments it runs.
func selectExperiments(exp string) ([]experiment, error) {
	if exp == "all" {
		return experiments, nil
	}
	for _, e := range experiments {
		if e.name == exp {
			return []experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want %s)", exp, experimentNames())
}

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment: "+experimentNames())
		seed  = flag.Uint64("seed", 42, "master seed (all results are deterministic in it)")
		quick = flag.Bool("quick", false, "scaled-down environment and iteration counts")
		iters = flag.Int("iters", 0, "override iteration count (0 = experiment default)")
		csv   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	flag.Parse()
	if err := run(os.Stdout, os.Stderr, *exp, *seed, *quick, *iters, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

type runner struct {
	out   io.Writer
	env   *expt.Environment
	quick bool
	iters int
	csv   bool
	seed  uint64
}

// run writes the selected tables to out, which is byte-identical for the
// same flags, and the wall-clock durations to timing.
func run(out, timing io.Writer, exp string, seed uint64, quick bool, iters int, csv bool) error {
	todo, err := selectExperiments(exp)
	if err != nil {
		return err
	}
	start := time.Now()
	params := expt.PaperParams(seed)
	if quick {
		params = expt.ScaledParams(seed, 0.25)
	}
	fmt.Fprintf(out, "# environment: %d nodes, %d-word vocabulary, %d query/gold pairs (seed %d)\n",
		params.GraphNodes, params.VocabWords, params.NumQueries, seed)
	env, err := expt.NewEnvironment(params)
	if err != nil {
		return err
	}
	fmt.Fprintf(timing, "# environment built in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(out, "# built: %d edges, pool %d docs\n\n", env.Graph.NumEdges(), env.MaxPoolDocs()-1)

	r := &runner{out: out, env: env, quick: quick, iters: iters, csv: csv, seed: seed}
	for _, e := range todo {
		start := time.Now()
		if err := e.run(r); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintf(timing, "# %s ran in %v\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func (r *runner) emit(title string, t *stats.Table) {
	fmt.Fprintf(r.out, "== %s\n", title)
	if r.csv {
		fmt.Fprint(r.out, t.CSV())
	} else {
		fmt.Fprint(r.out, t.String())
	}
	fmt.Fprintln(r.out)
}

// figMs returns the document counts per subplot, clamped to the pool.
func (r *runner) figMs() []int {
	all := []int{10, 100, 1000, 10000}
	out := make([]int, 0, len(all))
	for _, m := range all {
		if m <= r.env.MaxPoolDocs() {
			out = append(out, m)
		}
	}
	if len(out) < len(all) {
		fmt.Fprintf(r.out, "# note: pool supports only M ≤ %d; larger subplots skipped (use the full-scale env)\n", r.env.MaxPoolDocs())
	}
	return out
}

func (r *runner) itersOr(def, quickDef int) int {
	if r.iters > 0 {
		return r.iters
	}
	if r.quick {
		return quickDef
	}
	return def
}

func (r *runner) fig3() error {
	subplot := 'a'
	for _, m := range r.figMs() {
		res, err := expt.AccuracyByDistance(r.env, expt.AccuracyConfig{
			M:          m,
			Iterations: r.itersOr(200, 40),
			Seed:       r.seed,
		})
		if err != nil {
			return err
		}
		r.emit(fmt.Sprintf("Fig. 3%c — accuracy vs distance, M=%d (TTL %d)", subplot, m, res.TTL), expt.FormatAccuracy(res))
		subplot++
	}
	return nil
}

func (r *runner) table1() error {
	ms := r.figMs()
	rows, err := expt.HopCount(r.env, expt.HopCountConfig{
		Ms:         ms,
		Iterations: r.itersOr(500, 60),
		Seed:       r.seed,
	})
	if err != nil {
		return err
	}
	r.emit("Table I — average hop count (α=0.5, TTL 50)", expt.FormatHopCount(rows))
	return nil
}

func (r *runner) parallel() error {
	rows, err := expt.ComparePolicies(r.env, expt.CompareConfig{
		M: 100, Alpha: 0.5, TTL: 50,
		Iterations: r.itersOr(100, 20), QueriesPerIter: 5, Seed: r.seed,
		Variants: []expt.Variant{
			{Name: "walks-1", Policy: core.GreedyPolicy{Fanout: 1}},
			{Name: "walks-2", Policy: core.GreedyPolicy{Fanout: 2}},
			{Name: "walks-4", Policy: core.GreedyPolicy{Fanout: 4}},
			{Name: "walks-8", Policy: core.GreedyPolicy{Fanout: 8}},
		},
	})
	if err != nil {
		return err
	}
	r.emit("abl-parallel — parallel walks (M=100, α=0.5)", expt.FormatCompare(rows))
	return nil
}

// recall measures the decentralized walk's top-k recall against the
// centralized engine.
func (r *runner) recall() error {
	rows, err := expt.RecallAtK(r.env, expt.RecallConfig{
		M: 1000, Alpha: 0.5, Ks: []int{1, 5, 10}, TTL: 50,
		Iterations: r.itersOr(200, 40), Seed: r.seed,
	})
	if err != nil {
		return err
	}
	r.emit("abl-recall — top-k recall vs centralized engine (M=1000, α=0.5)", expt.FormatRecall(rows))
	return nil
}

func (r *runner) accuracyBase(m int) expt.AccuracyConfig {
	return expt.AccuracyConfig{
		M:          m,
		Alphas:     []float64{0.5},
		Iterations: r.itersOr(150, 30),
		Seed:       r.seed,
	}
}

func (r *runner) placement() error {
	res, err := expt.PlacementAblation(r.env, r.accuracyBase(1000))
	if err != nil {
		return err
	}
	r.emit("abl-placement — uniform vs correlated placement (M=1000, α=0.5)", expt.FormatLabeledAccuracy(res))
	return nil
}

func (r *runner) summary() error {
	res, err := expt.SummarizationAblation(r.env, r.accuracyBase(1000))
	if err != nil {
		return err
	}
	r.emit("abl-summary — personalization summarization (M=1000, α=0.5)", expt.FormatLabeledAccuracy(res))
	return nil
}

func (r *runner) visited() error {
	res, err := expt.VisitedAblation(r.env, r.accuracyBase(100))
	if err != nil {
		return err
	}
	r.emit("abl-visited — visited-avoidance mechanisms (M=100, α=0.5)", expt.FormatLabeledAccuracy(res))
	return nil
}

func (r *runner) baselines() error {
	rows, err := expt.ComparePolicies(r.env, expt.CompareConfig{
		M: 100, Alpha: 0.5, TTL: 50,
		Iterations: r.itersOr(100, 20), QueriesPerIter: 5, Seed: r.seed,
		Variants: expt.BaselineVariants(2),
	})
	if err != nil {
		return err
	}
	r.emit("abl-baselines — PPR walk vs blind walk vs flooding (M=100, α=0.5)", expt.FormatCompare(rows))
	return nil
}

func (r *runner) fanout() error {
	cfg := expt.FanoutConfig{
		M: 500, Alpha: 0.5, Seed: r.seed,
		Queries: r.itersOr(64, 16),
	}
	if r.quick {
		cfg.BitsGrid = []int{1024}
	}
	rows, err := expt.FanoutSweep(r.env, cfg)
	if err != nil {
		return err
	}
	r.emit("fanout — bloom-routed walk vs unrouted greedy walk on the protocol harness (M=500, α=0.5, TTL 50)", expt.FormatFanout(rows))
	return nil
}

func (r *runner) norm() error {
	res, err := expt.NormalizationAblation(r.env, r.accuracyBase(100))
	if err != nil {
		return err
	}
	r.emit("abl-norm — transition normalization (M=100, α=0.5)", expt.FormatLabeledAccuracy(res))
	return nil
}
