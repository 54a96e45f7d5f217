package main

import (
	"bytes"
	"io"
	"testing"
)

// TestUnknownExperimentError pins the unknown-name error: it is rejected
// before the environment is built, reads the same on every call, and lists
// the accepted names in the order -exp all runs them.
func TestUnknownExperimentError(t *testing.T) {
	const want = `unknown experiment "topk" (want fig3|table1|parallel|recall|placement|summary|visited|baselines|norm|fanout|all)`
	first := run(io.Discard, io.Discard, "topk", 42, true, 0, false)
	second := run(io.Discard, io.Discard, "topk", 42, true, 0, false)
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

// TestStdoutReproducible runs quick Table I twice: every wall-clock
// duration goes to the timing writer, so the tables are byte-identical.
func TestStdoutReproducible(t *testing.T) {
	var outs [2]bytes.Buffer
	for i := range outs {
		var timing bytes.Buffer
		if err := run(&outs[i], &timing, "table1", 42, true, 0, false); err != nil {
			t.Fatal(err)
		}
		if timing.Len() == 0 {
			t.Fatal("no durations written to the timing writer")
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatalf("stdout differs between runs:\n%s\n---\n%s", outs[0].String(), outs[1].String())
	}
}
