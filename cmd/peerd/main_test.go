package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"strings"

	"diffusearch/internal/diffuse"
	"diffusearch/internal/embed"
	"diffusearch/internal/graph"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/serve"
)

func writeTopo(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "net.txt")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadTopology(t *testing.T) {
	path := writeTopo(t, `# comment
0 127.0.0.1:7000 1 12,99
1 127.0.0.1:7001 0,2
2 127.0.0.1:7002 1 7
`)
	specs, err := loadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("specs %d", len(specs))
	}
	if specs[0].addr != "127.0.0.1:7000" {
		t.Fatalf("addr %q", specs[0].addr)
	}
	if len(specs[0].neighbors) != 1 || specs[0].neighbors[0] != 1 {
		t.Fatalf("neighbors %v", specs[0].neighbors)
	}
	if len(specs[0].docs) != 2 || specs[0].docs[1] != 99 {
		t.Fatalf("docs %v", specs[0].docs)
	}
	if len(specs[1].docs) != 0 {
		t.Fatalf("peer 1 docs %v", specs[1].docs)
	}
	if len(specs[1].neighbors) != 2 {
		t.Fatalf("peer 1 neighbors %v", specs[1].neighbors)
	}
}

func TestLoadTopologyErrors(t *testing.T) {
	cases := map[string]string{
		"too few fields": "0 127.0.0.1:7000\n",
		"bad id":         "x 127.0.0.1:7000 1\n",
		"negative id":    "-1 127.0.0.1:7000 1\n",
		"bad neighbour":  "0 127.0.0.1:7000 a,b\n",
		"bad doc":        "0 127.0.0.1:7000 1 x\n",
		"duplicate id":   "0 a:1 1\n0 a:2 1\n",
		"empty":          "# nothing\n",
	}
	for name, content := range cases {
		if _, err := loadTopology(writeTopo(t, content)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	if _, err := loadTopology(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestParseIntList(t *testing.T) {
	got, err := parseIntList("1,2, 3,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("parsed %v", got)
	}
	if _, err := parseIntList("1,-2"); err == nil {
		t.Fatal("negative must error")
	}
}

func testVocab(t *testing.T) *embed.Vocabulary {
	t.Helper()
	vocab, err := embed.Synthetic(embed.SyntheticParams{
		Words: 100, Dim: 16, Clusters: 10, Spread: 0.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return vocab
}

func testSpecs() map[int]peerSpec {
	return map[int]peerSpec{
		0: {addr: "a:1", neighbors: []graph.NodeID{1}, docs: []retrieval.DocID{3, 9}},
		1: {addr: "a:2", neighbors: []graph.NodeID{0, 2}},
		2: {addr: "a:3", neighbors: []graph.NodeID{1}, docs: []retrieval.DocID{7}},
	}
}

func testScorer(t *testing.T, specs map[int]peerSpec, engine string, workers int) *queryScorer {
	t.Helper()
	scorer, err := newQueryScorer(specs, testVocab(t), scorerConfig{
		engine: engine, alpha: 0.5, workers: workers, seed: 42,
		maxBatch: 8, cache: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(scorer.Close)
	return scorer
}

// localStats snapshots the scheduler's counters.
func localStats(s *queryScorer) serve.Stats { return s.sched.Stats() }

func TestEngineFlagReachesRequestDispatcher(t *testing.T) {
	// The -engine value must land in the DiffusionRequest behind every
	// score the live runtime serves.
	for name, want := range map[string]diffuse.Engine{
		"async":    diffuse.EngineAsynchronous,
		"parallel": diffuse.EngineParallel,
		"sync":     diffuse.EngineSync,
	} {
		scorer := testScorer(t, testSpecs(), name, 2)
		if scorer.req.Engine != want {
			t.Fatalf("-engine %s dispatched to %v, want %v", name, scorer.req.Engine, want)
		}
		if scorer.req.Alpha != 0.5 || scorer.req.Workers != 2 || scorer.req.Seed != 42 {
			t.Fatalf("-engine %s request knobs lost: %+v", name, scorer.req)
		}
	}
	if _, err := newQueryScorer(testSpecs(), testVocab(t), scorerConfig{engine: "mailboxes", alpha: 0.5}); err == nil {
		t.Fatal("unknown engine name must error")
	}
}

func TestQueryScorerScoresAndPrewarms(t *testing.T) {
	vocab := testVocab(t)
	scorer := testScorer(t, testSpecs(), "parallel", 1)
	q := vocab.Vector(3)
	scores, err := scorer.Score(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Fatalf("scores for %d nodes, want 3", len(scores))
	}
	// Doc 3 lives on peer 0: its host must outrank the empty peer 1.
	if scores[0] <= scores[1] {
		t.Fatalf("host score %g not above empty peer %g", scores[0], scores[1])
	}
	// Prewarm must fill the scheduler cache so live queries skip diffusion.
	queries := [][]float64{vocab.Vector(3), vocab.Vector(7)}
	st, err := scorer.Prewarm(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.ColumnSweeps) != 2 {
		t.Fatalf("prewarm stats %+v", st)
	}
	before := localStats(scorer)
	if _, err := scorer.Score(vocab.Vector(7)); err != nil {
		t.Fatal(err)
	}
	after := localStats(scorer)
	if after.CacheHits != before.CacheHits+1 || after.Batches != before.Batches {
		t.Fatalf("prewarmed query missed the cache: before %v after %v", before, after)
	}
}

func TestClassAndDeadlineFlagsReachSubmissions(t *testing.T) {
	// -class bulk and -deadline are per-connection defaults on every Score
	// call: bulk submissions must still resolve (and be accounted as bulk
	// columns), and an already-hopeless deadline must shed, not score.
	vocab := testVocab(t)
	scorer, err := newQueryScorer(testSpecs(), vocab, scorerConfig{
		engine: "parallel", alpha: 0.5, workers: 1, seed: 42,
		maxBatch: 8, cache: 32, class: serve.Bulk, deadline: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(scorer.Close)
	if _, err := scorer.Score(vocab.Vector(3)); err != nil {
		t.Fatal(err)
	}
	st := localStats(scorer)
	var bulkCols uint64
	for _, c := range st.ClassHist[serve.Bulk] {
		bulkCols += c
	}
	if bulkCols == 0 {
		t.Fatalf("-class bulk never reached the scheduler: %+v", st.ClassHist)
	}
	// A negative deadline budget puts every submission past its deadline
	// on arrival; the serve layer must shed it.
	hopeless, err := newQueryScorer(testSpecs(), vocab, scorerConfig{
		engine: "parallel", alpha: 0.5, workers: 1, seed: 42,
		maxBatch: 8, deadline: -time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hopeless.Close)
	if _, err := hopeless.Score(vocab.Vector(3)); !errors.Is(err, serve.ErrDeadlineMissed) {
		t.Fatalf("hopeless deadline returned %v, want ErrDeadlineMissed", err)
	}
	if st := localStats(hopeless); st.DeadlineMissed != 1 {
		t.Fatalf("miss not counted: %+v", st)
	}
}

func TestNewQueryScorerRejectsUnknownNeighbour(t *testing.T) {
	specs := testSpecs()
	specs[9] = peerSpec{addr: "a:9", neighbors: []graph.NodeID{77}}
	if _, err := newQueryScorer(specs, testVocab(t), scorerConfig{engine: "parallel", alpha: 0.5}); err == nil {
		t.Fatal("neighbour outside the topology must error")
	}
}

func TestQueryScorerPatchFollowsTopologyAndInvalidatesCache(t *testing.T) {
	// The incremental-mirror path: a topology reload with a joined peer
	// must change the scorer's answers without a restart, and cached score
	// columns from the old overlay must not survive.
	vocab := testVocab(t)
	scorer := testScorer(t, testSpecs(), "parallel", 1)
	q := vocab.Vector(3)
	before, err := scorer.Score(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 3 {
		t.Fatalf("scores for %d nodes, want 3", len(before))
	}

	// Peer 3 joins holding doc 12, attached to peer 2 (and 2 gains the
	// back-edge), as a reloaded topology file would describe.
	specs := testSpecs()
	specs[2] = peerSpec{addr: "a:3", neighbors: []graph.NodeID{1, 3}, docs: []retrieval.DocID{7}}
	specs[3] = peerSpec{addr: "a:4", neighbors: []graph.NodeID{2}, docs: []retrieval.DocID{12}}
	if _, err := scorer.Patch(specs); err != nil {
		t.Fatal(err)
	}

	after, err := scorer.Score(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 4 {
		t.Fatalf("patched scorer covers %d nodes, want 4", len(after))
	}
	st := localStats(scorer)
	// The repeat of q after Patch must have been re-diffused, not served
	// from the invalidated cache.
	if st.CacheHits != 0 {
		t.Fatalf("stale cache served a post-patch query: %v", st)
	}
	if st.Batches < 2 {
		t.Fatalf("patch did not force a fresh diffusion: %v", st)
	}

	// A broken reload (unknown neighbour) must leave the mirror usable.
	bad := testSpecs()
	bad[5] = peerSpec{addr: "a:6", neighbors: []graph.NodeID{99}}
	if _, err := scorer.Patch(bad); err == nil {
		t.Fatal("invalid specs must fail the patch")
	}
	if again, err := scorer.Score(q); err != nil || len(again) != 4 {
		t.Fatalf("scorer unusable after failed patch: %v %d", err, len(again))
	}
}

func TestPatchTargetedInvalidation(t *testing.T) {
	// A one-peer rewire in a larger overlay takes the targeted path: only
	// cached columns touching the patch neighbourhood drop.
	vocab := testVocab(t)
	// A 20-peer ring: patching one far edge leaves a local query's cached
	// column untouched (at α=0.9 the per-hop decay is 0.1·(1/2), so the
	// score mass 9 hops away is ~1e-12, far under the invalidation ε).
	specs := make(map[int]peerSpec)
	const n = 20
	for i := 0; i < n; i++ {
		specs[i] = peerSpec{
			addr:      "a:1",
			neighbors: []graph.NodeID{(i + n - 1) % n, (i + 1) % n},
		}
	}
	s0 := specs[0]
	s0.docs = []retrieval.DocID{3}
	specs[0] = s0
	scorer, err := newQueryScorer(specs, vocab, scorerConfig{
		engine: "parallel", alpha: 0.9, workers: 1, seed: 42, maxBatch: 8, cache: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(scorer.Close)
	if _, err := scorer.Score(vocab.Vector(3)); err != nil {
		t.Fatal(err)
	}
	// A pure rewire at the antipode — a chord between peers 10 and 12:
	// closure {9,10,11,12,13}, exactly the small-patch bound of 5.
	patched := make(map[int]peerSpec, n)
	for k, v := range specs {
		patched[k] = v
	}
	p10 := patched[10]
	p10.neighbors = []graph.NodeID{9, 11, 12}
	patched[10] = p10
	p12 := patched[12]
	p12.neighbors = []graph.NodeID{10, 11, 13}
	patched[12] = p12
	note, err := scorer.Patch(patched)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(note, "targeted invalidation") {
		t.Fatalf("small rewire took the whole-cache path: %q", note)
	}
	// At alpha 0.9 the diffusion is tight around peer 0's doc, so the
	// cached column has no mass at 9..13 and must survive.
	before := localStats(scorer)
	if _, err := scorer.Score(vocab.Vector(3)); err != nil {
		t.Fatal(err)
	}
	if after := localStats(scorer); after.CacheHits != before.CacheHits+1 {
		t.Fatalf("surviving column not served from cache: before %+v after %+v", before, after)
	}

	// A doc-placement change, however far away, must take the whole-cache
	// path: targeted invalidation cannot see mass a new document creates.
	docPatch := make(map[int]peerSpec, n)
	for k, v := range patched {
		docPatch[k] = v
	}
	d10 := docPatch[10]
	d10.docs = []retrieval.DocID{55}
	docPatch[10] = d10
	note, err = scorer.Patch(docPatch)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(note, "document placement changed") {
		t.Fatalf("doc change took the targeted path: %q", note)
	}
}

func TestChangedClosure(t *testing.T) {
	old := testSpecs()
	same := testSpecs()
	if got, docs := changedClosure(old, same); len(got) != 0 || docs {
		t.Fatalf("identical specs changed %v (docs %v)", got, docs)
	}
	// Reordered neighbour lists are not a change.
	re := testSpecs()
	s1 := re[1]
	s1.neighbors = []graph.NodeID{2, 0}
	re[1] = s1
	if got, docs := changedClosure(old, re); len(got) != 0 || docs {
		t.Fatalf("reordered neighbours changed %v (docs %v)", got, docs)
	}
	// A departed peer marks it and its neighbours — and it held a doc, so
	// the relevance sources moved too.
	gone := testSpecs()
	delete(gone, 2)
	got, docs := changedClosure(old, gone)
	want := []int{1, 2}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("departure closure %v, want %v", got, want)
	}
	if !docs {
		t.Fatal("departure of a doc-holding peer must flag docsChanged")
	}
	// A doc-less rewire does not flag docsChanged.
	rewired := testSpecs()
	s0 := rewired[0]
	s0.neighbors = []graph.NodeID{1, 2}
	rewired[0] = s0
	s2 := rewired[2]
	s2.neighbors = []graph.NodeID{0, 1}
	rewired[2] = s2
	if _, docs := changedClosure(old, rewired); docs {
		t.Fatal("pure rewire flagged docsChanged")
	}
}

func TestParseWordList(t *testing.T) {
	ws, err := parseWordList("w1, w2,,w3", 100)
	if err != nil || len(ws) != 3 || ws[2] != 3 {
		t.Fatalf("parsed %v, %v", ws, err)
	}
	if _, err := parseWordList("w1,w200", 100); err == nil {
		t.Fatal("out-of-range word must error")
	}
	if _, err := parseWordList(",", 100); err == nil {
		t.Fatal("empty list must error")
	}
}

func TestParseWord(t *testing.T) {
	w, err := parseWord("w12", 100)
	if err != nil || w != 12 {
		t.Fatalf("w=%d err=%v", w, err)
	}
	if _, err := parseWord("w100", 100); err == nil {
		t.Fatal("out-of-range must error")
	}
	if _, err := parseWord("nope", 100); err == nil {
		t.Fatal("bad token must error")
	}
}
