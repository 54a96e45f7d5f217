package expt

import (
	"fmt"
	"strconv"

	"diffusearch/internal/core"
	"diffusearch/internal/graph"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/stats"
)

// Variant names one protocol configuration inside a comparison experiment.
type Variant struct {
	Name    string
	Policy  core.Policy
	Visited core.VisitedMode
	TTL     int // 0 inherits the experiment TTL (flooding wants a small one)
}

// CompareConfig parameterizes ComparePolicies (ablation abl-baselines /
// abl-parallel / abl-visited): several protocol variants under the same
// placements and query origins.
type CompareConfig struct {
	M              int
	Alpha          float64
	TTL            int
	Iterations     int
	QueriesPerIter int
	Seed           uint64
	Variants       []Variant
}

func (c CompareConfig) withDefaults() CompareConfig {
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.TTL <= 0 {
		c.TTL = 50
	}
	if c.Iterations <= 0 {
		c.Iterations = 50
	}
	if c.QueriesPerIter <= 0 {
		c.QueriesPerIter = 5
	}
	return c
}

// CompareRow summarizes one variant.
type CompareRow struct {
	Name         string
	Successes    int
	Samples      int
	HitRate      float64
	MeanHops     float64 // hops to gold, successful queries only
	MeanMessages float64 // all queries (query + response messages)
	MeanVisited  float64 // distinct nodes per query
}

// ComparePolicies runs every variant on identical placements and origins
// and reports hit rate, hop, message, and coverage statistics — the
// message-budget comparison motivating informed search over flooding and
// blind walks (§II-A).
func ComparePolicies(env *Environment, cfg CompareConfig) ([]CompareRow, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Variants) == 0 {
		return nil, fmt.Errorf("expt: no variants to compare")
	}
	if cfg.M < 1 || cfg.M > env.MaxPoolDocs() {
		return nil, fmt.Errorf("expt: M=%d out of [1,%d]", cfg.M, env.MaxPoolDocs())
	}
	net := core.NewNetwork(env.Graph, env.Bench.Vocabulary())
	rows := make([]CompareRow, len(cfg.Variants))
	for i := range rows {
		rows[i].Name = cfg.Variants[i].Name
	}
	var hopSums = make([]float64, len(cfg.Variants))
	var msgSums = make([]float64, len(cfg.Variants))
	var visitSums = make([]float64, len(cfg.Variants))

	for iter := 0; iter < cfg.Iterations; iter++ {
		r := randx.Derive(cfg.Seed, "compare", strconv.Itoa(iter))
		pair := env.Bench.SamplePair(r)
		query := env.Bench.Vocabulary().Vector(pair.Query)

		net.ClearDocuments()
		docs := append([]retrieval.DocID{pair.Gold}, env.Bench.SamplePool(r, cfg.M-1)...)
		hosts := core.UniformHosts(r, len(docs), env.Graph.NumNodes())
		if err := net.PlaceDocuments(docs, hosts); err != nil {
			return nil, err
		}
		if err := net.ComputePersonalization(); err != nil {
			return nil, err
		}
		scores, err := sharedScores(net, query, cfg.Alpha)
		if err != nil {
			return nil, err
		}
		for q := 0; q < cfg.QueriesPerIter; q++ {
			origin := r.IntN(env.Graph.NumNodes())
			for vi, variant := range cfg.Variants {
				ttl := cfg.TTL
				if variant.TTL > 0 {
					ttl = variant.TTL
				}
				out, err := net.RunQuery(origin, query, pair.Gold, core.QueryConfig{
					TTL:     ttl,
					Policy:  variant.Policy,
					Visited: variant.Visited,
					Seed:    randx.DeriveN(cfg.Seed, "compare-walk", iter*1024+q*32+vi).Uint64(),
					Scores:  scores,
				})
				if err != nil {
					return nil, err
				}
				rows[vi].Samples++
				msgSums[vi] += float64(out.Messages)
				visitSums[vi] += float64(out.Visited)
				if out.Found {
					rows[vi].Successes++
					hopSums[vi] += float64(out.HopsToGold)
				}
			}
		}
	}
	for i := range rows {
		if rows[i].Samples > 0 {
			rows[i].HitRate = float64(rows[i].Successes) / float64(rows[i].Samples)
			rows[i].MeanMessages = msgSums[i] / float64(rows[i].Samples)
			rows[i].MeanVisited = visitSums[i] / float64(rows[i].Samples)
		}
		if rows[i].Successes > 0 {
			rows[i].MeanHops = hopSums[i] / float64(rows[i].Successes)
		}
	}
	return rows, nil
}

// FormatCompare renders ComparePolicies rows.
func FormatCompare(rows []CompareRow) *stats.Table {
	t := &stats.Table{Header: []string{"variant", "hit rate", "mean hops", "mean msgs", "mean visited"}}
	for _, r := range rows {
		t.AddRow(
			r.Name,
			fmt.Sprintf("%.3f (%d/%d)", r.HitRate, r.Successes, r.Samples),
			fmt.Sprintf("%.2f", r.MeanHops),
			fmt.Sprintf("%.1f", r.MeanMessages),
			fmt.Sprintf("%.1f", r.MeanVisited),
		)
	}
	return t
}

// BaselineVariants returns the standard comparison set: the paper's greedy
// walk, parallel greedy walks, a blind random walk, and TTL-limited
// flooding (whose message cost explodes beyond a few hops).
func BaselineVariants(floodTTL int) []Variant {
	return []Variant{
		{Name: "ppr-greedy", Policy: core.GreedyPolicy{Fanout: 1}},
		{Name: "ppr-greedy-x4", Policy: core.GreedyPolicy{Fanout: 4}},
		{Name: "random-walk", Policy: core.RandomPolicy{Fanout: 1}},
		{Name: "flooding", Policy: core.FloodingPolicy{}, TTL: floodTTL},
	}
}

// RecallConfig parameterizes RecallAtK (ablation abl-recall): top-k recall of
// the decentralized walk against the centralized engine of §III-A.
type RecallConfig struct {
	M          int
	Alpha      float64
	Ks         []int // paper evaluates k=1; the extension sweeps k
	TTL        int
	Iterations int
	Seed       uint64
}

func (c RecallConfig) withDefaults() RecallConfig {
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{1, 5, 10}
	}
	if c.TTL <= 0 {
		c.TTL = 50
	}
	if c.Iterations <= 0 {
		c.Iterations = 50
	}
	return c
}

// RecallRow reports mean recall@k over all sampled queries.
type RecallRow struct {
	K          int
	MeanRecall float64
	Samples    int
}

// RecallAtK measures |walk top-k ∩ centralized top-k| / k: how much of the
// centralized engine's answer the decentralized walk recovers.
func RecallAtK(env *Environment, cfg RecallConfig) ([]RecallRow, error) {
	cfg = cfg.withDefaults()
	if cfg.M < 1 || cfg.M > env.MaxPoolDocs() {
		return nil, fmt.Errorf("expt: M=%d out of [1,%d]", cfg.M, env.MaxPoolDocs())
	}
	maxK := 0
	for _, k := range cfg.Ks {
		if k < 1 {
			return nil, fmt.Errorf("expt: invalid k=%d", k)
		}
		if k > maxK {
			maxK = k
		}
	}
	net := core.NewNetwork(env.Graph, env.Bench.Vocabulary())
	sums := make([]float64, len(cfg.Ks))
	samples := 0
	for iter := 0; iter < cfg.Iterations; iter++ {
		r := randx.Derive(cfg.Seed, "recall", strconv.Itoa(iter))
		pair := env.Bench.SamplePair(r)
		query := env.Bench.Vocabulary().Vector(pair.Query)

		net.ClearDocuments()
		docs := append([]retrieval.DocID{pair.Gold}, env.Bench.SamplePool(r, cfg.M-1)...)
		hosts := core.UniformHosts(r, len(docs), env.Graph.NumNodes())
		if err := net.PlaceDocuments(docs, hosts); err != nil {
			return nil, err
		}
		if err := net.ComputePersonalization(); err != nil {
			return nil, err
		}
		scores, err := sharedScores(net, query, cfg.Alpha)
		if err != nil {
			return nil, err
		}
		central := net.CentralizedEngine().Search(query, maxK, retrieval.DotProduct)
		origin := r.IntN(env.Graph.NumNodes())
		out, err := net.RunQuery(origin, query, pair.Gold, core.QueryConfig{
			TTL:    cfg.TTL,
			K:      maxK,
			Seed:   randx.DeriveN(cfg.Seed, "recall-walk", iter).Uint64(),
			Scores: scores,
		})
		if err != nil {
			return nil, err
		}
		samples++
		for ki, k := range cfg.Ks {
			sums[ki] += recallAt(out.Results, central, k)
		}
	}
	rows := make([]RecallRow, len(cfg.Ks))
	for ki, k := range cfg.Ks {
		rows[ki] = RecallRow{K: k, MeanRecall: sums[ki] / float64(samples), Samples: samples}
	}
	return rows, nil
}

func recallAt(got, want []retrieval.Result, k int) float64 {
	if k > len(want) {
		k = len(want)
	}
	if k == 0 {
		return 1
	}
	in := make(map[retrieval.DocID]struct{}, k)
	for i := 0; i < k && i < len(got); i++ {
		in[got[i].Doc] = struct{}{}
	}
	hit := 0
	for i := 0; i < k; i++ {
		if _, ok := in[want[i].Doc]; ok {
			hit++
		}
	}
	return float64(hit) / float64(k)
}

// FormatRecall renders RecallAtK rows.
func FormatRecall(rows []RecallRow) *stats.Table {
	t := &stats.Table{Header: []string{"k", "mean recall@k", "samples"}}
	for _, r := range rows {
		t.AddRow(strconv.Itoa(r.K), fmt.Sprintf("%.3f", r.MeanRecall), strconv.Itoa(r.Samples))
	}
	return t
}

// LabeledAccuracy couples an accuracy curve with a variant label.
type LabeledAccuracy struct {
	Label  string
	Result AccuracyResult
}

// PlacementAblation contrasts uniform with spatially correlated document
// placement (§V-B: realistic distributions "are expected to aid diffusion").
func PlacementAblation(env *Environment, base AccuracyConfig) ([]LabeledAccuracy, error) {
	uniform := base
	uniform.Correlated = false
	correlated := base
	correlated.Correlated = true
	return runLabeled(env, []string{"uniform", "correlated"}, []AccuracyConfig{uniform, correlated})
}

// SummarizationAblation contrasts personalization summarizations (§IV-A).
func SummarizationAblation(env *Environment, base AccuracyConfig) ([]LabeledAccuracy, error) {
	var cfgs []AccuracyConfig
	labels := []string{"sum", "mean", "unit"}
	for _, mode := range labels {
		c := base
		c.Summarization = mode
		cfgs = append(cfgs, c)
	}
	return runLabeled(env, labels, cfgs)
}

// VisitedAblation contrasts visited-avoidance mechanisms (§IV-C).
func VisitedAblation(env *Environment, base AccuracyConfig) ([]LabeledAccuracy, error) {
	labels := []string{"node-memory", "in-message", "none"}
	modes := []core.VisitedMode{core.VisitedNodeMemory, core.VisitedInMessage, core.VisitedNone}
	var cfgs []AccuracyConfig
	for _, m := range modes {
		c := base
		c.Visited = m
		cfgs = append(cfgs, c)
	}
	return runLabeled(env, labels, cfgs)
}

// NormalizationAblation contrasts transition normalizations (eq. 5).
func NormalizationAblation(env *Environment, base AccuracyConfig) ([]LabeledAccuracy, error) {
	labels := []string{"column-stochastic", "symmetric", "row-stochastic"}
	norms := []graph.Normalization{graph.ColumnStochastic, graph.Symmetric, graph.RowStochastic}
	var cfgs []AccuracyConfig
	for _, n := range norms {
		c := base
		c.Normalization = n
		cfgs = append(cfgs, c)
	}
	return runLabeled(env, labels, cfgs)
}

func runLabeled(env *Environment, labels []string, cfgs []AccuracyConfig) ([]LabeledAccuracy, error) {
	out := make([]LabeledAccuracy, 0, len(cfgs))
	for i, cfg := range cfgs {
		res, err := AccuracyByDistance(env, cfg)
		if err != nil {
			return nil, fmt.Errorf("expt: variant %q: %w", labels[i], err)
		}
		out = append(out, LabeledAccuracy{Label: labels[i], Result: res})
	}
	return out, nil
}

// FormatLabeledAccuracy renders one accuracy column per variant (first α
// series of each result).
func FormatLabeledAccuracy(results []LabeledAccuracy) *stats.Table {
	header := []string{"distance"}
	for _, lr := range results {
		header = append(header, lr.Label)
	}
	t := &stats.Table{Header: header}
	if len(results) == 0 || len(results[0].Result.Series) == 0 {
		return t
	}
	dists := len(results[0].Result.Series[0].Accuracy)
	for d := 0; d < dists; d++ {
		row := []string{strconv.Itoa(d)}
		for _, lr := range results {
			if len(lr.Result.Series) == 0 || d >= len(lr.Result.Series[0].Accuracy) {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", lr.Result.Series[0].Accuracy[d]))
		}
		t.AddRow(row...)
	}
	return t
}
