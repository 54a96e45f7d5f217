package diffuse

import (
	"math"
	"testing"

	"diffusearch/internal/graph"
	"diffusearch/internal/randx"
	"diffusearch/internal/vecmath"
)

// recordingObserver keeps every SweepStat it sees.
type recordingObserver struct {
	stats []SweepStat
}

func (o *recordingObserver) ObserveSweep(s SweepStat) { o.stats = append(o.stats, s) }

// observeTestGraph builds a connected ring with four hubs wired to every
// fifth node, so the frontier engines see both dense and sparse regions.
func observeTestGraph() *graph.Graph {
	const n = 120
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		b.AddEdge(u, (u+1)%n)
	}
	for _, h := range []graph.NodeID{0, n/2 - 1, n / 2, n - 1} {
		for v := 0; v < n; v += 5 {
			if v != h {
				b.AddEdge(h, v)
			}
		}
	}
	return b.Build()
}

func observeTestSignal(n, cols int) *Signal {
	r := randx.New(99)
	m := vecmath.NewMatrix(n, cols)
	for u := 0; u < n; u++ {
		row := m.Row(u)
		for j := range row {
			if r.Float64() < 0.2 { // sparse, like query relevances
				row[j] = r.Float64()
			}
		}
	}
	return NewSignal(m)
}

// runKernel dispatches one named column kernel with fresh inputs.
func runKernel(t *testing.T, name string, tr *graph.Transition, cols int, p Params) (*Signal, Stats) {
	t.Helper()
	sig := observeTestSignal(tr.Graph().NumNodes(), cols)
	var out *Signal
	var st Stats
	var err error
	switch name {
	case "sync":
		out, st, err = SynchronousColumns(tr, sig, p)
	case "async":
		out, st, err = AsynchronousColumns(tr, sig, p, randx.New(7))
	case "parallel":
		out, st, err = ParallelColumns(tr, sig, p)
	default:
		t.Fatalf("unknown kernel %q", name)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out, st
}

// TestObserverNeverPerturbsKernels is the observability contract: an
// attached observer is a pure tap. Every column kernel must produce
// bit-identical scores, the same sweep count, the same per-column
// retirement sweeps, and the same message totals whether or not an
// observer is watching.
func TestObserverNeverPerturbsKernels(t *testing.T) {
	g := observeTestGraph()
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	const cols = 5
	p := Params{Alpha: 0.5, Tol: 1e-8, Workers: 4}

	for _, name := range []string{"sync", "async", "parallel"} {
		bare, bst := runKernel(t, name, tr, cols, p)

		obs := &recordingObserver{}
		po := p
		po.Observe = obs
		watched, wst := runKernel(t, name, tr, cols, po)

		if d := vecmath.MaxAbsDiffMatrix(watched.Matrix(), bare.Matrix()); d != 0 {
			t.Errorf("%s: observed run differs from bare run by %g (must be bit-identical)", name, d)
		}
		if wst.Sweeps != bst.Sweeps || wst.Updates != bst.Updates ||
			wst.Messages != bst.Messages {
			t.Errorf("%s: stats diverged under observation: %+v vs %+v", name, wst, bst)
		}
		if len(wst.ColumnSweeps) != len(bst.ColumnSweeps) {
			t.Fatalf("%s: column sweep count %d vs %d", name, len(wst.ColumnSweeps), len(bst.ColumnSweeps))
		}
		for j := range wst.ColumnSweeps {
			if wst.ColumnSweeps[j] != bst.ColumnSweeps[j] {
				t.Errorf("%s: column %d retired at sweep %d observed vs %d bare", name, j, wst.ColumnSweeps[j], bst.ColumnSweeps[j])
			}
		}

		// The observations themselves must be a faithful ledger of the run.
		if len(obs.stats) != wst.Sweeps {
			t.Fatalf("%s: %d observations for %d sweeps", name, len(obs.stats), wst.Sweeps)
		}
		var msgs int64
		for i, s := range obs.stats {
			if s.Sweep != i+1 {
				t.Errorf("%s: observation %d carries sweep index %d", name, i, s.Sweep)
			}
			if s.ActiveNodes <= 0 || s.ActiveColumns <= 0 || s.ActiveColumns > cols {
				t.Errorf("%s: sweep %d: implausible frontier %d / columns %d", name, s.Sweep, s.ActiveNodes, s.ActiveColumns)
			}
			if s.ResidualL1 < s.Residual {
				t.Errorf("%s: sweep %d: residual L1 %g below max-norm %g", name, s.Sweep, s.ResidualL1, s.Residual)
			}
			if math.IsNaN(s.ResidualL1) {
				t.Errorf("%s: sweep %d: NaN residual mass", name, s.Sweep)
			}
			msgs += s.Messages
		}
		if msgs != wst.Messages {
			t.Errorf("%s: per-sweep message deltas sum to %d, run total %d", name, msgs, wst.Messages)
		}
		last := obs.stats[len(obs.stats)-1]
		if !wst.Converged {
			t.Fatalf("%s: test run did not converge", name)
		}
		if first := obs.stats[0]; first.ActiveColumns != cols {
			t.Errorf("%s: first sweep saw %d active columns, want %d", name, first.ActiveColumns, cols)
		}
		if last.ActiveColumns <= 0 {
			t.Errorf("%s: final sweep reported %d active columns", name, last.ActiveColumns)
		}
	}
}

// TestObserverSeesEarlyTermination checks that the observer watches the
// frontier drain on the residual-driven engines: the final observed round
// of a converging parallel run must carry a far smaller frontier than the
// bootstrap round, and the residual profile must end below where it
// started.
func TestObserverSeesEarlyTermination(t *testing.T) {
	g := observeTestGraph()
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	obs := &recordingObserver{}
	_, st, err := ParallelColumns(tr, observeTestSignal(g.NumNodes(), 3),
		Params{Alpha: 0.5, Tol: 1e-8, Workers: 2, Observe: obs})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || len(obs.stats) < 3 {
		t.Fatalf("want a converged multi-round run, got %d rounds (converged=%v)", len(obs.stats), st.Converged)
	}
	first, last := obs.stats[0], obs.stats[len(obs.stats)-1]
	if first.ActiveNodes != g.NumNodes() {
		t.Fatalf("bootstrap round frontier %d, want whole graph %d", first.ActiveNodes, g.NumNodes())
	}
	if last.ActiveNodes >= first.ActiveNodes {
		t.Errorf("frontier never drained: first %d, last %d", first.ActiveNodes, last.ActiveNodes)
	}
	if last.ResidualL1 >= first.ResidualL1 {
		t.Errorf("residual mass never fell: first %g, last %g", first.ResidualL1, last.ResidualL1)
	}
}
