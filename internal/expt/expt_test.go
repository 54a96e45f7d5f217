package expt

import (
	"strings"
	"sync"
	"testing"

	"diffusearch/internal/core"
)

// sharedEnv caches one scaled environment across the test file (mining is
// the expensive part).
var (
	envOnce sync.Once
	envVal  *Environment
	envErr  error
)

func scaledEnv(t *testing.T) *Environment {
	t.Helper()
	envOnce.Do(func() {
		envVal, envErr = NewEnvironment(ScaledParams(5, 0.08))
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestNewEnvironmentScaled(t *testing.T) {
	env := scaledEnv(t)
	if env.Graph.NumNodes() < 60 {
		t.Fatalf("graph nodes %d", env.Graph.NumNodes())
	}
	if len(env.Bench.Pairs) < 20 {
		t.Fatalf("mined pairs %d", len(env.Bench.Pairs))
	}
	if env.MaxPoolDocs() <= len(env.Bench.Pool) {
		t.Fatal("MaxPoolDocs must count the gold slot")
	}
}

func TestPaperParamsShape(t *testing.T) {
	p := PaperParams(1)
	if p.GraphNodes != 4039 || p.VocabDim != 300 || p.NumQueries != 1000 || p.GoldThreshold != 0.6 {
		t.Fatalf("paper params drifted: %+v", p)
	}
}

func TestScaledParamsFloors(t *testing.T) {
	p := ScaledParams(1, 0.0001)
	if p.GraphNodes < 60 || p.VocabWords < 400 || p.NumQueries < 20 {
		t.Fatalf("floors not applied: %+v", p)
	}
}

func TestAccuracyByDistanceShape(t *testing.T) {
	env := scaledEnv(t)
	res, err := AccuracyByDistance(env, AccuracyConfig{
		M: 10, Alphas: []float64{0.1, 0.9}, MaxDistance: 4, TTL: 20, Iterations: 15, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.M != 10 || len(res.Series) != 2 {
		t.Fatalf("result shape: %+v", res)
	}
	for _, s := range res.Series {
		if len(s.Accuracy) != 5 || len(s.Samples) != 5 {
			t.Fatalf("series shape: %+v", s)
		}
		// Distance 0 queries start at the gold host: always found.
		if s.Samples[0] > 0 && s.Accuracy[0] != 1 {
			t.Fatalf("alpha %v: accuracy at distance 0 is %v, want 1", s.Alpha, s.Accuracy[0])
		}
		for d, a := range s.Accuracy {
			if a < 0 || a > 1 {
				t.Fatalf("accuracy[%d] = %v out of [0,1]", d, a)
			}
			if s.Hits[d] > s.Samples[d] {
				t.Fatalf("hits exceed samples at distance %d", d)
			}
		}
	}
}

func TestAccuracyDeclinesWithDistance(t *testing.T) {
	env := scaledEnv(t)
	res, err := AccuracyByDistance(env, AccuracyConfig{
		M: 30, Alphas: []float64{0.5}, MaxDistance: 4, TTL: 10, Iterations: 30, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series[0]
	// Paper headline: near-gold queries succeed far more often than
	// distant ones. Compare distance ≤1 with distance ≥3 aggregates.
	near := float64(s.Hits[0]+s.Hits[1]) / float64(s.Samples[0]+s.Samples[1])
	farSamples := s.Samples[3] + s.Samples[4]
	if farSamples == 0 {
		t.Skip("no distant samples in this draw")
	}
	far := float64(s.Hits[3]+s.Hits[4]) / float64(farSamples)
	if near <= far {
		t.Fatalf("accuracy must decline with distance: near %.3f vs far %.3f", near, far)
	}
}

func TestAccuracyDeterministic(t *testing.T) {
	env := scaledEnv(t)
	cfg := AccuracyConfig{M: 10, Alphas: []float64{0.5}, MaxDistance: 3, TTL: 10, Iterations: 5, Seed: 3}
	a, err := AccuracyByDistance(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AccuracyByDistance(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for si := range a.Series {
		for d := range a.Series[si].Hits {
			if a.Series[si].Hits[d] != b.Series[si].Hits[d] {
				t.Fatal("same seed must reproduce identical results")
			}
		}
	}
}

// TestAccuracyAlphaColumnsPaired: the α columns of one Fig. 3 subplot walk
// the same query from the same origin with the same walk seed, so two
// series at the same α must read identically.
func TestAccuracyAlphaColumnsPaired(t *testing.T) {
	env := scaledEnv(t)
	res, err := AccuracyByDistance(env, AccuracyConfig{
		M: 30, Alphas: []float64{0.5, 0.5}, MaxDistance: 4, TTL: 10, Iterations: 30, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Series[0], res.Series[1]
	for d := range a.Hits {
		if a.Hits[d] != b.Hits[d] || a.Samples[d] != b.Samples[d] {
			t.Fatalf("distance %d: equal-α series read %d/%d and %d/%d hits/samples",
				d, a.Hits[d], a.Samples[d], b.Hits[d], b.Samples[d])
		}
	}
}

func TestAccuracyValidation(t *testing.T) {
	env := scaledEnv(t)
	if _, err := AccuracyByDistance(env, AccuracyConfig{M: 0}); err == nil {
		t.Fatal("M=0 must error")
	}
	if _, err := AccuracyByDistance(env, AccuracyConfig{M: env.MaxPoolDocs() + 1}); err == nil {
		t.Fatal("oversized M must error")
	}
}

func TestHopCountShape(t *testing.T) {
	env := scaledEnv(t)
	rows, err := HopCount(env, HopCountConfig{
		Ms: []int{5, 50}, Alpha: 0.5, Iterations: 10, QueriesPerIter: 4, TTL: 15, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Samples != 40 {
			t.Fatalf("samples %d, want 40", r.Samples)
		}
		if r.Successes < 0 || r.Successes > r.Samples {
			t.Fatalf("successes %d out of range", r.Successes)
		}
		if r.Successes > 0 && (r.MeanHops < 0 || r.MeanHops > 15) {
			t.Fatalf("mean hops %v outside TTL range", r.MeanHops)
		}
	}
}

func TestHopCountValidation(t *testing.T) {
	env := scaledEnv(t)
	if _, err := HopCount(env, HopCountConfig{Ms: []int{0}}); err == nil {
		t.Fatal("M=0 must error")
	}
}

func TestComparePoliciesGreedyBeatsRandom(t *testing.T) {
	env := scaledEnv(t)
	rows, err := ComparePolicies(env, CompareConfig{
		M: 10, Alpha: 0.5, TTL: 15, Iterations: 30, QueriesPerIter: 3, Seed: 5,
		Variants: []Variant{
			{Name: "greedy", Policy: core.GreedyPolicy{Fanout: 1}},
			{Name: "random", Policy: core.RandomPolicy{Fanout: 1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[0].HitRate <= rows[1].HitRate {
		t.Fatalf("greedy %.3f must beat random %.3f", rows[0].HitRate, rows[1].HitRate)
	}
	for _, r := range rows {
		if r.MeanMessages <= 0 || r.MeanVisited <= 0 {
			t.Fatalf("stats not populated: %+v", r)
		}
	}
}

func TestComparePoliciesFloodingCostly(t *testing.T) {
	env := scaledEnv(t)
	rows, err := ComparePolicies(env, CompareConfig{
		M: 10, Alpha: 0.5, TTL: 15, Iterations: 10, QueriesPerIter: 2, Seed: 6,
		Variants: BaselineVariants(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CompareRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Flooding even with TTL=2 must cost far more messages per query than a
	// TTL-15 walk.
	if byName["flooding"].MeanMessages <= byName["ppr-greedy"].MeanMessages {
		t.Fatalf("flooding %.1f msgs vs walk %.1f: expected flooding to dominate cost",
			byName["flooding"].MeanMessages, byName["ppr-greedy"].MeanMessages)
	}
}

func TestComparePoliciesValidation(t *testing.T) {
	env := scaledEnv(t)
	if _, err := ComparePolicies(env, CompareConfig{M: 5}); err == nil {
		t.Fatal("no variants must error")
	}
	if _, err := ComparePolicies(env, CompareConfig{M: 0, Variants: BaselineVariants(2)}); err == nil {
		t.Fatal("M=0 must error")
	}
}

func TestRecallAtK(t *testing.T) {
	env := scaledEnv(t)
	rows, err := RecallAtK(env, RecallConfig{
		M: 30, Alpha: 0.5, Ks: []int{1, 5}, TTL: 20, Iterations: 20, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanRecall < 0 || r.MeanRecall > 1 {
			t.Fatalf("recall %v out of [0,1]", r.MeanRecall)
		}
		if r.Samples != 20 {
			t.Fatalf("samples %d", r.Samples)
		}
	}
}

func TestRecallValidation(t *testing.T) {
	env := scaledEnv(t)
	if _, err := RecallAtK(env, RecallConfig{M: 5, Ks: []int{0}}); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := RecallAtK(env, RecallConfig{M: 0}); err == nil {
		t.Fatal("M=0 must error")
	}
}

func TestLabeledAblations(t *testing.T) {
	env := scaledEnv(t)
	base := AccuracyConfig{M: 10, Alphas: []float64{0.5}, MaxDistance: 3, TTL: 10, Iterations: 5, Seed: 8}

	placement, err := PlacementAblation(env, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(placement) != 2 || placement[0].Label != "uniform" || placement[1].Label != "correlated" {
		t.Fatalf("placement variants: %+v", placement)
	}
	summar, err := SummarizationAblation(env, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(summar) != 3 {
		t.Fatalf("summarization variants: %d", len(summar))
	}
	visited, err := VisitedAblation(env, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != 3 {
		t.Fatalf("visited variants: %d", len(visited))
	}
	norm, err := NormalizationAblation(env, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(norm) != 3 {
		t.Fatalf("normalization variants: %d", len(norm))
	}
	tbl := FormatLabeledAccuracy(norm)
	if !strings.Contains(tbl.String(), "column-stochastic") {
		t.Fatal("labeled table missing variant column")
	}
}

func TestFormatters(t *testing.T) {
	env := scaledEnv(t)
	res, err := AccuracyByDistance(env, AccuracyConfig{
		M: 5, Alphas: []float64{0.5}, MaxDistance: 2, TTL: 5, Iterations: 3, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := FormatAccuracy(res).String()
	if !strings.Contains(acc, "distance") || !strings.Contains(acc, "acc(α=0.5)") {
		t.Fatalf("accuracy table:\n%s", acc)
	}
	rows, err := HopCount(env, HopCountConfig{Ms: []int{5}, Iterations: 3, QueriesPerIter: 2, TTL: 5, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	hop := FormatHopCount(rows).String()
	if !strings.Contains(hop, "success rate") || !strings.Contains(hop, "/ 6") {
		t.Fatalf("hop table:\n%s", hop)
	}
	cmp := FormatCompare([]CompareRow{{Name: "x", HitRate: 0.5, Successes: 1, Samples: 2}}).String()
	if !strings.Contains(cmp, "variant") {
		t.Fatalf("compare table:\n%s", cmp)
	}
	rec := FormatRecall([]RecallRow{{K: 1, MeanRecall: 0.9, Samples: 4}}).String()
	if !strings.Contains(rec, "recall@k") {
		t.Fatalf("recall table:\n%s", rec)
	}
}
