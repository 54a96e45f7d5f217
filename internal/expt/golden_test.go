package expt

import (
	"math"
	"reflect"
	"testing"
)

// TestPaperCountGoldens pins the exact counts behind a slice of Fig. 3
// (hits and samples per α and distance at M=100) and of Table I
// (successes, samples and total hops per M) on the quarter-scale
// environment. Both are seeded end to end, so a change to placement,
// personalization, diffusion scoring or the walk that moves a paper number
// fails here, where TestAccuracyDeterministic would still pass.
//
// A change meant to move these numbers regenerates them: run
//
//	go test ./internal/expt -run TestPaperCountGoldens -v
//
// and paste the literals the failure prints over the ones below.
func TestPaperCountGoldens(t *testing.T) {
	env, err := NewEnvironment(ScaledParams(42, 0.25))
	if err != nil {
		t.Fatal(err)
	}

	// Fig. 3: hits per distance 0..8, one row per α (0.1, 0.5, 0.9).
	wantHits := [][]int{
		{20, 20, 20, 12, 5, 3, 1, 0, 0},
		{20, 20, 20, 9, 6, 2, 1, 0, 0},
		{20, 20, 20, 7, 4, 2, 0, 0, 0},
	}
	wantSamples := []int{20, 20, 20, 20, 20, 20, 20, 20, 20}
	acc, err := AccuracyByDistance(env, AccuracyConfig{M: 100, Iterations: 20, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	gotHits := make([][]int, len(acc.Series))
	for i, s := range acc.Series {
		gotHits[i] = s.Hits
	}
	if !reflect.DeepEqual(gotHits, wantHits) || !reflect.DeepEqual(acc.Series[0].Samples, wantSamples) {
		t.Errorf("Fig. 3 counts moved:\n\twantHits := %#v\n\twantSamples := %#v", gotHits, acc.Series[0].Samples)
	}

	// Table I: {successes, samples, total hops over the successes} per M.
	wantHops := [][3]int{{63, 200, 572}, {23, 200, 542}, {38, 200, 498}}
	rows, err := HopCount(env, HopCountConfig{Ms: []int{10, 100, 1000}, Iterations: 20, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	gotHops := make([][3]int, len(rows))
	for i, r := range rows {
		gotHops[i] = [3]int{r.Successes, r.Samples, int(math.Round(r.MeanHops * float64(r.Successes)))}
	}
	if !reflect.DeepEqual(gotHops, wantHops) {
		t.Errorf("Table I counts moved:\n\twantHops := %#v", gotHops)
	}
}
