package expt

import "testing"

// TestFanoutRoutedBarsAtPaperScale holds the bloom-routed walk to its two
// bars at paper scale (4,039 nodes, 500 placed documents, 1,024-bit
// filters): it spends at most 0.7× the unrouted greedy walk's messages per
// query and finds the gold document at least as often. Both walks answer
// the identical queries from identical origins on the deterministic
// protocol harness, so these are exact counts, not timings.
func TestFanoutRoutedBarsAtPaperScale(t *testing.T) {
	const (
		maxMsgRatio    = 0.7
		minRecallRatio = 1.0
	)
	env, err := NewEnvironment(ScaledParams(42, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := FanoutSweep(env, FanoutConfig{M: 500, Alpha: 0.5, Seed: 42, BitsGrid: []int{1024}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	row := rows[0]
	t.Logf("bits=%d: %.2f vs %.2f msgs/query (ratio %.4f), recall %.3f vs %.3f (ratio %.2f)",
		row.Bits, row.RoutedMsgsPerQ, row.UnroutedMsgsPerQ, row.MsgRatio,
		row.RoutedRecall, row.UnroutedRecall, row.RecallRatio)
	if row.MsgRatio > maxMsgRatio {
		t.Errorf("routed/unrouted messages per query %.4f, want ≤ %g", row.MsgRatio, maxMsgRatio)
	}
	if row.RecallRatio < minRecallRatio {
		t.Errorf("routed/unrouted recall %.4f, want ≥ %g", row.RecallRatio, minRecallRatio)
	}
}
