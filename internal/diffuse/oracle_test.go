package diffuse

import (
	"fmt"
	"math"
	"testing"

	"diffusearch/internal/graph"
	"diffusearch/internal/ppr"
	"diffusearch/internal/vecmath"
)

// hubGraph is the oracle test's topology: a ring so every node has a long
// slow path, one hub adjacent to every node and a second adjacent to every
// other node. Under column-stochastic weights a hub's row sums to far more
// than one, so (1−α)A is no max-norm contraction and a small per-sweep
// change can hide a large pending error — the topology on which a wrong
// residual, threshold or retirement shows.
func hubGraph() *graph.Graph {
	const n = 160
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		b.AddEdge(u, (u+1)%n)
		if u != 0 {
			b.AddEdge(0, u)
		}
		if u%2 == 1 && u != n/2 {
			b.AddEdge(n/2, u)
		}
	}
	return b.Build()
}

// resolventNorm returns ‖(I − (1−α)A)⁻¹‖∞, read off the oracle itself:
// DenseClosedForm of the identity is α times the resolvent. It is the
// factor by which a sweep-to-sweep change of tol can sit from the fixed
// point, so bounds below are derived from Tol rather than tuned.
func resolventNorm(t *testing.T, tr *graph.Transition, alpha float64) float64 {
	t.Helper()
	n := tr.Graph().NumNodes()
	id := vecmath.NewMatrix(n, n)
	for u := 0; u < n; u++ {
		id.Set(u, u, 1)
	}
	res, err := ppr.DenseClosedForm(tr, id, alpha)
	if err != nil {
		t.Fatal(err)
	}
	var norm float64
	for u := 0; u < n; u++ {
		var sum float64
		for _, v := range res.Row(u) {
			sum += math.Abs(v)
		}
		norm = max(norm, sum/alpha)
	}
	return norm
}

// TestEnginesMatchDenseClosedForm checks every visit order against an
// oracle that shares no code with the engines: the dense
// Gaussian-elimination solution of eq. 6. The bit-identity property tests
// compare the engines with each other; this is the test that fails when
// they drift together. Columns carry different magnitudes, so they retire
// on different sweeps and the block is repacked on the way.
func TestEnginesMatchDenseClosedForm(t *testing.T) {
	const (
		alpha = 0.3
		tol   = 1e-9
		cols  = 14
	)
	tr := graph.NewTransition(hubGraph(), graph.ColumnStochastic)
	n := tr.Graph().NumNodes()
	e0 := sparseColumns(77, n, cols)
	want, err := ppr.DenseClosedForm(tr, e0, alpha)
	if err != nil {
		t.Fatal(err)
	}
	// An iterate whose last sweep moved it by at most tol is within
	// ‖resolvent‖·tol of the fixed point; the factor 2 covers the in-place
	// orders, whose sweep residual mixes old and new values.
	bound := 2 * resolventNorm(t, tr, alpha) * tol
	if bound > 1e-5 {
		t.Fatalf("bound %g is too loose to catch a drift", bound)
	}
	p := Params{Alpha: alpha, Tol: tol, MaxSweeps: 5000, Workers: 3}
	for _, eng := range []Engine{EngineSync, EngineAsynchronous, EngineParallel, EngineParallelGS} {
		// The one block is the plan formerly named "one tile"; the subtest
		// keeps that name.
		t.Run(fmt.Sprintf("%v/one tile/single CSR", eng), func(t *testing.T) {
			got, st, err := RunSignal(eng, tr, NewSignal(e0), p, 5)
			if err != nil || !st.Converged {
				t.Fatalf("converged=%v err=%v", st.Converged, err)
			}
			if d := vecmath.MaxAbsDiffMatrix(got.Matrix(), want); d > bound {
				t.Errorf("off the closed form by %g, bound %g", d, bound)
			}
		})
	}
}

// TestRunIsASignalRun pins the matrix form: Run on the async, parallel and
// GS engines is RunSignal over the embedding dimensions, bit for bit —
// values and Stats alike.
func TestRunIsASignalRun(t *testing.T) {
	tr := signalGraph(t)
	e0 := randomSignal(8, tr.Graph().NumNodes(), 6)
	p := Params{Alpha: 0.4, Tol: 1e-8, Workers: 2}
	for _, eng := range []Engine{EngineAsynchronous, EngineParallel, EngineParallelGS} {
		mat, mst, err := Run(eng, tr, e0, p, 9)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		sig, sst, err := RunSignal(eng, tr, NewSignal(e0), p, 9)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if d := vecmath.MaxAbsDiffMatrix(mat, sig.Matrix()); d != 0 {
			t.Errorf("%v: Run differs from RunSignal by %g (must be bit-identical)", eng, d)
		}
		if fmt.Sprint(mst) != fmt.Sprint(sst) {
			t.Errorf("%v: stats diverged: Run %+v vs RunSignal %+v", eng, mst, sst)
		}
	}
}
