package main

import "testing"

// TestUnknownExperimentError pins the unknown-name error: it is rejected
// before the environment is built, reads the same on every call, and lists
// the accepted names in the order -exp all runs them.
func TestUnknownExperimentError(t *testing.T) {
	const want = `unknown experiment "topk" (want fig3|table1|parallel|recall|placement|summary|visited|baselines|norm|fanout|all)`
	first := run("topk", 42, true, 0, false)
	second := run("topk", 42, true, 0, false)
	if first == nil || second == nil {
		t.Fatalf("run accepted an unknown experiment: %v, %v", first, second)
	}
	if first.Error() != second.Error() {
		t.Fatalf("error changed between calls:\n%s\n%s", first, second)
	}
	if first.Error() != want {
		t.Fatalf("error = %s\nwant    %s", first, want)
	}
}
