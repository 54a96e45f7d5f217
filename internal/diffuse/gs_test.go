package diffuse

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"diffusearch/internal/gengraph"
	"diffusearch/internal/graph"
	"diffusearch/internal/vecmath"
)

func TestGSMatchesSynchronousFixedPoint(t *testing.T) {
	// The Gauss–Seidel engine reaches the same PPR fixed point as the
	// Synchronous reference: at a tight tolerance the scores agree to
	// well under 1e-9 on every normalization and alpha.
	g := gengraph.ErdosRenyi(60, 0.12, 3)
	g, _ = g.LargestComponent()
	for _, norm := range []graph.Normalization{graph.ColumnStochastic, graph.RowStochastic, graph.Symmetric} {
		for _, alpha := range []float64{0.1, 0.5, 0.9} {
			tr := graph.NewTransition(g, norm)
			e0 := randomSignal(1, g.NumNodes(), 5)
			want := syncFixedPoint(t, tr, e0, alpha)
			got, st, err := ParallelGS(tr, e0, Params{Alpha: alpha, Tol: 1e-10, Workers: 4})
			if err != nil {
				t.Fatalf("%v a=%v: %v", norm, alpha, err)
			}
			if !st.Converged {
				t.Fatalf("%v a=%v: did not converge (%d sweeps)", norm, alpha, st.Sweeps)
			}
			if d := vecmath.MaxAbsDiffMatrix(got, want); d > 1e-9 {
				t.Fatalf("%v a=%v: GS differs from synchronous fixed point by %g", norm, alpha, d)
			}
		}
	}
}

func TestGSDeterministicAcrossWorkers(t *testing.T) {
	// Multi-color scheduling is the whole point: no color class contains
	// an edge, so the in-class updates commute and a sweep's result
	// cannot depend on how the class was carved across workers.
	tr := signalGraph(t)
	n := tr.Graph().NumNodes()
	for _, b := range []int{3, 17} {
		e0 := sparseColumns(uint64(70+b), n, b)
		var ref *Signal
		var rst Stats
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			out, st, err := ParallelGSColumns(tr, NewSignal(e0), Params{Alpha: 0.5, Tol: 1e-8, Workers: workers})
			if err != nil {
				t.Fatalf("b=%d workers=%d: %v", b, workers, err)
			}
			if ref == nil {
				ref, rst = out, st
				continue
			}
			if d := vecmath.MaxAbsDiffMatrix(out.Matrix(), ref.Matrix()); d != 0 {
				t.Errorf("b=%d workers=%d: output differs from workers=1 by %g (must be bit-identical)", b, workers, d)
			}
			if st.Sweeps != rst.Sweeps || st.Updates != rst.Updates || st.Messages != rst.Messages ||
				st.Residual != rst.Residual || st.Converged != rst.Converged {
				t.Errorf("b=%d workers=%d: stats diverged: %+v vs %+v", b, workers, st, rst)
			}
			if !reflect.DeepEqual(st.ColumnSweeps, rst.ColumnSweeps) {
				t.Errorf("b=%d workers=%d: ColumnSweeps %v vs %v", b, workers, st.ColumnSweeps, rst.ColumnSweeps)
			}
		}
	}
}

func TestGSSweepCountBeatsParallelRounds(t *testing.T) {
	// The convergence-rate claim behind the engine: reading freshest
	// cross-class values makes a GS sweep worth roughly two Jacobi
	// sweeps, so on the community benchmark graph GS should finish in at
	// most 0.8× the Parallel engine's frontier rounds at equal tolerance.
	if testing.Short() {
		t.Skip("community graph too large for -short")
	}
	g := gengraph.FacebookLike(42)
	g, _ = g.LargestComponent()
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := sparseColumns(9, g.NumNodes(), 8)
	p := Params{Alpha: 0.5, Tol: 1e-6, Workers: 4}

	_, gst, err := ParallelGSColumns(tr, NewSignal(e0), p)
	if err != nil {
		t.Fatal(err)
	}
	_, pst, err := ParallelColumns(tr, NewSignal(e0), p)
	if err != nil {
		t.Fatal(err)
	}
	if !gst.Converged || !pst.Converged {
		t.Fatalf("engines did not converge: gs %+v parallel %+v", gst, pst)
	}
	t.Logf("gs sweeps %d, parallel rounds %d", gst.Sweeps, pst.Sweeps)
	if 10*gst.Sweeps > 8*pst.Sweeps {
		t.Fatalf("gs took %d sweeps, want <= 0.8x parallel's %d rounds", gst.Sweeps, pst.Sweeps)
	}
}

func TestGSObserverAndStopContract(t *testing.T) {
	// The GS kernel honors the shared column-kernel contracts: an
	// observed run is bit-identical to a bare one with one SweepStat per
	// sweep, and the sweep budget retires every column at the budget.
	tr := signalGraph(t)
	n := tr.Graph().NumNodes()
	e0 := sparseColumns(31, n, 6)
	p := Params{Alpha: 0.5, Tol: 1e-8, Workers: 4}

	bare, bst, err := ParallelGSColumns(tr, NewSignal(e0), p)
	if err != nil {
		t.Fatal(err)
	}
	obs := &recordingObserver{}
	po := p
	po.Observe = obs
	watched, wst, err := ParallelGSColumns(tr, NewSignal(e0), po)
	if err != nil {
		t.Fatal(err)
	}
	if d := vecmath.MaxAbsDiffMatrix(watched.Matrix(), bare.Matrix()); d != 0 {
		t.Errorf("observed run differs from bare run by %g", d)
	}
	if len(obs.stats) != bst.Sweeps {
		t.Errorf("observer saw %d sweeps, stats report %d", len(obs.stats), bst.Sweeps)
	}
	var msgs int64
	for i, s := range obs.stats {
		if s.Sweep != i+1 {
			t.Errorf("sweep stat %d has index %d", i, s.Sweep)
		}
		msgs += s.Messages
	}
	if msgs != wst.Messages {
		t.Errorf("observer message deltas sum to %d, stats report %d", msgs, wst.Messages)
	}

	// Stop every column by the sweep budget at sweep 2: the run reports
	// ErrNoConvergence and every ColumnSweeps entry reads 2.
	ps := p
	ps.MaxSweeps = 2
	_, st, err := ParallelGSColumns(tr, NewSignal(e0), ps)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("budget-stopped run: err %v, want ErrNoConvergence", err)
	}
	if st.Converged || st.Sweeps != 2 {
		t.Fatalf("budget-stopped run: %+v, want unconverged after 2 sweeps", st)
	}
	for j, s := range st.ColumnSweeps {
		if s != 2 {
			t.Errorf("column %d retired at sweep %d, want 2", j, s)
		}
	}
}
