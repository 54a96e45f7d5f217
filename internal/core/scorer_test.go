package core

import (
	"strings"
	"testing"
)

func TestParseScorer(t *testing.T) {
	for name, want := range map[string]ScorerKind{
		"": ScorerCSR, "csr": ScorerCSR, "walkindex": ScorerWalkIndex,
	} {
		got, err := ParseScorer(name)
		if err != nil || got != want {
			t.Fatalf("ParseScorer(%q) = %v, %v; want %v", name, got, err, want)
		}
		if got.String() == "" {
			t.Fatalf("%v must have a name", got)
		}
	}
	for _, k := range []ScorerKind{ScorerCSR, ScorerWalkIndex} {
		back, err := ParseScorer(k.String())
		if err != nil || back != k {
			t.Fatalf("round-trip %v: got %v, %v", k, back, err)
		}
	}
}

// TestParseScorerRejectionListsNames: a peerd -scorer typo's error must
// list the accepted backends.
func TestParseScorerRejectionListsNames(t *testing.T) {
	_, err := ParseScorer("btree")
	if err == nil {
		t.Fatal("unknown scorer must error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "btree") {
		t.Fatalf("error %q does not echo the rejected value", msg)
	}
	for _, name := range []string{"csr", "walkindex"} {
		if !strings.Contains(msg, name) {
			t.Fatalf("error %q does not list accepted name %q", msg, name)
		}
	}
}
