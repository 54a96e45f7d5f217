package core

import (
	"math"
	"testing"

	"diffusearch/internal/diffuse"
	"diffusearch/internal/gengraph"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/vecmath"
)

// allRowsProjection is the projection as it was before the host list: one
// DotColumns call for every node, on the caller.
func allRowsProjection(n *Network, queries [][]float64) *vecmath.Matrix {
	nn := n.g.NumNodes()
	x := vecmath.NewMatrix(nn, len(queries))
	for u := 0; u < nn; u++ {
		vecmath.DotColumns(x.Row(u), queries, n.perso.Row(u))
	}
	return x
}

// sameBits reports the first index where a and b differ in their bits.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestProjectionMatchesAllRowsOracle holds the host-row projection, and the
// ScoreBatch output diffused from it, bit for bit to the all-rows loop on
// every summarization mode, batch width and worker count, across
// placements that host documents on most, few or no nodes and a
// re-placement that moves every host.
func TestProjectionMatchesAllRowsOracle(t *testing.T) {
	base := newFixture(t)
	vocab := base.net.Vocabulary()
	g, _ := gengraph.ErdosRenyi(400, 0.02, 91).LargestComponent()
	nn := g.NumNodes()
	perm := randx.New(92).Perm(nn)
	r := randx.New(93)
	queries := make([][]float64, 64)
	for j := range queries {
		q := vecmath.Clone(vocab.Vector(r.IntN(vocab.Len())))
		for i := range q {
			q[i] += 0.1 * r.NormFloat64()
		}
		queries[j] = q
	}
	// placeOn hosts 2·len(nodes) documents on nodes, two per node, so the
	// sum, mean and unit summaries all differ.
	placeOn := func(t *testing.T, n *Network, nodes []int) {
		t.Helper()
		docs := make([]retrieval.DocID, 2*len(nodes))
		hosts := make([]int, len(docs))
		for i := range docs {
			docs[i] = retrieval.DocID(i)
			hosts[i] = nodes[i%len(nodes)]
		}
		if err := n.PlaceDocuments(docs, hosts); err != nil {
			t.Fatal(err)
		}
	}
	// Each stage moves to a new placement on the same network; the hosts
	// of "moved" are disjoint from those of "most empty", and "few" sits
	// under one projection range.
	stages := []struct {
		name  string
		hosts []int // nil: no documents
	}{
		{"no documents", nil},
		{"most empty", perm[:150]},
		{"moved", perm[150:230]},
		{"few", perm[230:240]},
		{"every node", perm},
	}
	for _, mode := range []string{"sum", "mean", "unit"} {
		n := NewNetwork(g, vocab, WithSummarization(mode))
		for _, stage := range stages {
			n.ClearDocuments()
			if stage.hosts != nil {
				placeOn(t, n, stage.hosts)
			}
			if err := n.ComputePersonalization(); err != nil {
				t.Fatal(err)
			}
			if len(n.hosts) != len(stage.hosts) {
				t.Fatalf("%s/%s: %d host rows, placed on %d nodes", mode, stage.name, len(n.hosts), len(stage.hosts))
			}
			for _, b := range []int{1, 3, 4, 5, 64} {
				qs := queries[:b]
				want := allRowsProjection(n, qs)
				for _, workers := range []int{1, 2, 3} {
					x, err := n.projectQueries(qs, workers)
					if err != nil {
						t.Fatal(err)
					}
					if i, ok := sameBits(x.Data(), want.Data()); !ok {
						t.Fatalf("%s/%s B=%d workers=%d: x[%d] = %v, all-rows loop %v",
							mode, stage.name, b, workers, i, x.Data()[i], want.Data()[i])
					}
					// ScoreBatch equals the same diffusion of the all-rows
					// projection.
					req := DiffusionRequest{Alpha: 0.5, Tol: DefaultScoreTol, Workers: workers}
					got, _, err := n.ScoreBatch(qs, req)
					if err != nil {
						t.Fatal(err)
					}
					sig, _, err := n.scoring.DiffuseSignal(diffuse.NewSignal(want), req.engine(), req.params(), req.Seed)
					if err != nil {
						t.Fatal(err)
					}
					for j := range got {
						if i, ok := sameBits(got[j], sig.Column(j)); !ok {
							t.Fatalf("%s/%s B=%d workers=%d query %d: score[%d] differs from the all-rows oracle",
								mode, stage.name, b, workers, j, i)
						}
					}
				}
			}
		}
	}
}
