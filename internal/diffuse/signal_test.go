package diffuse

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"diffusearch/internal/gengraph"
	"diffusearch/internal/graph"
	"diffusearch/internal/ppr"
	"diffusearch/internal/randx"
	"diffusearch/internal/vecmath"
)

// signalGraph builds the shared column-kernel test topology.
func signalGraph(t *testing.T) *graph.Transition {
	t.Helper()
	g := gengraph.ErdosRenyi(70, 0.1, 21)
	g, _ = g.LargestComponent()
	return graph.NewTransition(g, graph.ColumnStochastic)
}

// sparseColumns builds an n×b block of localized scalar signals (a few hot
// nodes per column), the shape of batched query relevances.
func sparseColumns(seed uint64, n, b int) *vecmath.Matrix {
	r := randx.New(seed)
	m := vecmath.NewMatrix(n, b)
	for j := 0; j < b; j++ {
		for k := 0; k < 1+r.IntN(6); k++ {
			m.Set(r.IntN(n), j, r.NormFloat64()*float64(1+j))
		}
	}
	return m
}

func TestSynchronousColumnsSingleColumnBitCompatibleWithPPRFilter(t *testing.T) {
	// EngineSync exists to preserve the historical ppr.PPRFilter numerics
	// behind the unified dispatcher: a one-column Signal must reproduce the
	// filter bit for bit, including the iteration count.
	tr := signalGraph(t)
	n := tr.Graph().NumNodes()
	for _, tol := range []float64{0, 1e-10} {
		e0 := sparseColumns(5, n, 1)
		want, pst, err := (ppr.PPRFilter{Alpha: 0.5, Tol: tol}).Apply(tr, e0)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := SynchronousColumns(tr, NewSignal(e0), Params{Alpha: 0.5, Tol: tol})
		if err != nil {
			t.Fatal(err)
		}
		if d := vecmath.MaxAbsDiffMatrix(got.Matrix(), want); d != 0 {
			t.Fatalf("tol=%v: sync column kernel differs from ppr.PPRFilter by %g (must be bit-identical)", tol, d)
		}
		if st.Sweeps != pst.Iterations {
			t.Fatalf("tol=%v: sweeps %d != filter iterations %d", tol, st.Sweeps, pst.Iterations)
		}
	}
}

// soloColumn diffuses column j of e0 alone through the same engine.
func soloColumn(t *testing.T, eng Engine, tr *graph.Transition, e0 *vecmath.Matrix, j int, p Params, seed uint64) ([]float64, Stats) {
	t.Helper()
	one := vecmath.NewMatrix(e0.Rows(), 1)
	one.SetColumn(0, e0.Column(j))
	out, st, err := RunSignal(eng, tr, NewSignal(one), p, seed)
	if err != nil {
		t.Fatalf("engine %v column %d: %v", eng, j, err)
	}
	return out.Column(0), st
}

func TestColumnsBatchMatchesSoloDeterministicEngines(t *testing.T) {
	// Columns never mix and the sync/async schedules do not depend on the
	// signal, so batch diffusion must equal per-column solo diffusion bit
	// for bit — including each column's retirement sweep.
	tr := signalGraph(t)
	n := tr.Graph().NumNodes()
	const b = 7
	e0 := sparseColumns(6, n, b)
	p := Params{Alpha: 0.4, Tol: 1e-9}
	for _, eng := range []Engine{EngineSync, EngineAsynchronous} {
		batch, st, err := RunSignal(eng, tr, NewSignal(e0), p, 33)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if len(st.ColumnSweeps) != b {
			t.Fatalf("%v: ColumnSweeps %v", eng, st.ColumnSweeps)
		}
		for j := 0; j < b; j++ {
			solo, soloSt := soloColumn(t, eng, tr, e0, j, p, 33)
			if d := vecmath.MaxAbsDiff(batch.Column(j), solo); d != 0 {
				t.Fatalf("%v: batch column %d differs from solo by %g (must be bit-identical)", eng, j, d)
			}
			if st.ColumnSweeps[j] != soloSt.Sweeps {
				t.Fatalf("%v: column %d retired at sweep %d, solo converged at %d",
					eng, j, st.ColumnSweeps[j], soloSt.Sweeps)
			}
		}
	}
}

// TestBatchMatchesSolo checks that repacking the active block composes
// with per-column early termination: columns of different magnitudes
// retire on different sweeps, so the block is repacked mid-run, and every
// column must still equal diffusing it alone, bit for bit, on the engines
// whose schedule does not depend on the signal.
func TestBatchMatchesSolo(t *testing.T) {
	tr := signalGraph(t)
	n := tr.Graph().NumNodes()
	const b = 9
	e0 := sparseColumns(13, n, b)
	p := Params{Alpha: 0.4, Tol: 1e-9}
	for _, eng := range []Engine{EngineSync, EngineAsynchronous, EngineParallelGS} {
		out, st, err := RunSignal(eng, tr, NewSignal(e0), p, 11)
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
		if slices.Min(st.ColumnSweeps) == st.Sweeps {
			t.Fatalf("engine %v: every column retired on the last sweep %v; nothing was repacked", eng, st.ColumnSweeps)
		}
		for j := 0; j < b; j++ {
			want, wst := soloColumn(t, eng, tr, e0, j, p, 11)
			got := out.Column(j)
			for u := range got {
				if got[u] != want[u] {
					t.Fatalf("engine %v column %d node %d: batch %v != solo %v", eng, j, u, got[u], want[u])
				}
			}
			if st.ColumnSweeps[j] != wst.ColumnSweeps[0] {
				t.Fatalf("engine %v column %d: batch sweeps %d != solo sweeps %d", eng, j, st.ColumnSweeps[j], wst.ColumnSweeps[0])
			}
		}
	}
}

// TestTiledBitIdenticalToUntiled checks that a batch split into column
// groups by the caller — a forced width with a ragged final group, and a
// width that divides nothing evenly — reproduces the batch diffused as one
// block bit for bit: scores, per-column sweep counts, the sweep count and
// convergence alike. Each group retires its columns on its own schedule,
// so the one block is repacked around different neighbours than in the
// groups. The parallel engine shares push scheduling across the block, so
// it is held to a tolerance instead
// (TestParallelColumnsBatchMatchesSoloWithinTolerance).
func TestTiledBitIdenticalToUntiled(t *testing.T) {
	tr := signalGraph(t)
	n := tr.Graph().NumNodes()
	const tile = 7
	// tile-1 and tile+1 exercise the degenerate single-group split and the
	// ragged one-column final group; 512 covers a wide batch (73 full
	// groups plus a ragged tail of width 1).
	for _, b := range []int{1, tile - 1, tile, tile + 1, 512} {
		e0 := sparseColumns(uint64(40+b), n, b)
		for _, eng := range []Engine{EngineSync, EngineAsynchronous, EngineParallelGS} {
			for _, workers := range []int{1, 4} {
				if workers != 1 && eng != EngineParallelGS {
					continue // sync/async ignore Workers
				}
				t.Run(fmt.Sprintf("%v/b=%d/w=%d", eng, b, workers), func(t *testing.T) {
					p := Params{Alpha: 0.5, Tol: 1e-8, Workers: workers}
					run := func(m *vecmath.Matrix) (*Signal, Stats) {
						out, st, err := RunSignal(eng, tr, NewSignal(m), p, 11)
						if err != nil {
							t.Fatal(err)
						}
						return out, st
					}
					plain, pst := run(e0) // the batch as one block
					for _, width := range []int{tile, 3} {
						sweeps, converged := 0, true
						for lo := 0; lo < b; lo += width {
							hi := min(lo+width, b)
							group := vecmath.NewMatrix(n, hi-lo)
							for j := lo; j < hi; j++ {
								group.SetColumn(j-lo, e0.Column(j))
							}
							out, st := run(group)
							for j := lo; j < hi; j++ {
								if d := vecmath.MaxAbsDiff(out.Column(j-lo), plain.Column(j)); d != 0 {
									t.Fatalf("width %d: column %d differs from one block by %g (must be bit-identical)", width, j, d)
								}
								if st.ColumnSweeps[j-lo] != pst.ColumnSweeps[j] {
									t.Fatalf("width %d: column %d retired at sweep %d, one block at %d",
										width, j, st.ColumnSweeps[j-lo], pst.ColumnSweeps[j])
								}
							}
							sweeps = max(sweeps, st.Sweeps)
							converged = converged && st.Converged
						}
						if sweeps != pst.Sweeps || converged != pst.Converged {
							t.Errorf("width %d: groups ran %d sweeps (converged %v), one block %d (converged %v)",
								width, sweeps, converged, pst.Sweeps, pst.Converged)
						}
					}
				})
			}
		}
	}
}

func TestParallelColumnsBatchMatchesSoloWithinTolerance(t *testing.T) {
	// The parallel engine shares push scheduling across the block, so batch
	// and solo trajectories differ — but both land within the convergence
	// budget of the same fixed point. At a tight tolerance the batch must
	// agree with per-column solo runs to 1e-9 (the ScoreBatch acceptance
	// bar).
	tr := signalGraph(t)
	n := tr.Graph().NumNodes()
	const b = 5
	e0 := sparseColumns(7, n, b)
	p := Params{Alpha: 0.5, Tol: 1e-12}
	batch, _, err := RunSignal(EngineParallel, tr, NewSignal(e0), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < b; j++ {
		solo, _ := soloColumn(t, EngineParallel, tr, e0, j, p, 0)
		if d := vecmath.MaxAbsDiff(batch.Column(j), solo); d > 1e-9 {
			t.Fatalf("parallel batch column %d differs from solo by %g (> 1e-9)", j, d)
		}
	}
}

func TestParallelColumnsDeterministicAcrossWorkers(t *testing.T) {
	tr := signalGraph(t)
	n := tr.Graph().NumNodes()
	e0 := sparseColumns(8, n, 6)
	p := Params{Alpha: 0.3, Tol: 1e-8}
	run := func(workers int) *Signal {
		p := p
		p.Workers = workers
		out, _, err := ParallelColumns(tr, NewSignal(e0), p)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if d := vecmath.MaxAbsDiffMatrix(run(1).Matrix(), run(5).Matrix()); d != 0 {
		t.Fatalf("parallel column kernel must be deterministic across worker counts (diff %g)", d)
	}
}

func TestColumnsEarlyTermination(t *testing.T) {
	// A zero column has nothing to diffuse and must retire immediately,
	// while a dense heavy column keeps sweeping: the per-column sweep
	// counts expose the gap.
	tr := signalGraph(t)
	n := tr.Graph().NumNodes()
	e0 := vecmath.NewMatrix(n, 2)
	r := randx.New(9)
	for u := 0; u < n; u++ {
		e0.Set(u, 1, r.NormFloat64()*10)
	}
	for _, eng := range []Engine{EngineSync, EngineAsynchronous, EngineParallel} {
		out, st, err := RunSignal(eng, tr, NewSignal(e0), Params{Alpha: 0.1, Tol: 1e-10}, 1)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if !st.Converged {
			t.Fatalf("%v: not converged", eng)
		}
		if st.ColumnSweeps[0] >= st.ColumnSweeps[1] {
			t.Fatalf("%v: zero column retired at sweep %d, dense column at %d — no early termination",
				eng, st.ColumnSweeps[0], st.ColumnSweeps[1])
		}
		if st.ColumnSweeps[1] != st.Sweeps {
			t.Fatalf("%v: last column must retire at the final sweep (%d != %d)",
				eng, st.ColumnSweeps[1], st.Sweeps)
		}
		for u := 0; u < n; u++ {
			if out.Matrix().At(u, 0) != 0 {
				t.Fatalf("%v: zero column produced nonzero score at node %d", eng, u)
			}
		}
	}
}

func TestColumnsInputUnmodifiedAndValidation(t *testing.T) {
	tr := signalGraph(t)
	n := tr.Graph().NumNodes()
	e0 := sparseColumns(10, n, 3)
	snap := e0.Clone()
	for _, eng := range []Engine{EngineSync, EngineAsynchronous, EngineParallel} {
		if _, _, err := RunSignal(eng, tr, NewSignal(e0), Params{Alpha: 0.5}, 2); err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if vecmath.MaxAbsDiffMatrix(e0, snap) != 0 {
			t.Fatalf("%v: input signal modified", eng)
		}
		if _, _, err := RunSignal(eng, tr, NewSignal(e0), Params{Alpha: 0}, 2); err == nil {
			t.Fatalf("%v: alpha=0 must error", eng)
		}
		bad := vecmath.NewMatrix(3, 2)
		if _, _, err := RunSignal(eng, tr, NewSignal(bad), Params{Alpha: 0.5}, 2); err == nil {
			t.Fatalf("%v: row mismatch must error", eng)
		}
	}
	if _, _, err := RunSignal(Engine(42), tr, NewSignal(e0), Params{Alpha: 0.5}, 2); err == nil {
		t.Fatal("unknown engine must error")
	}
}

func TestColumnsNoConvergenceBudget(t *testing.T) {
	tr := signalGraph(t)
	n := tr.Graph().NumNodes()
	e0 := sparseColumns(11, n, 2)
	for _, eng := range []Engine{EngineSync, EngineAsynchronous, EngineParallel} {
		out, st, err := RunSignal(eng, tr, NewSignal(e0), Params{Alpha: 0.05, Tol: 1e-15, MaxSweeps: 1}, 3)
		if !errors.Is(err, ErrNoConvergence) {
			t.Fatalf("%v: want ErrNoConvergence, got %v", eng, err)
		}
		if st.Converged {
			t.Fatalf("%v: stats must report non-convergence", eng)
		}
		if out == nil || out.Columns() != 2 {
			t.Fatalf("%v: partial result must still carry every column", eng)
		}
	}
}

func TestSignalAccessors(t *testing.T) {
	m := vecmath.NewMatrix(4, 2)
	m.Set(3, 1, 7)
	s := NewSignal(m)
	if s.Nodes() != 4 || s.Columns() != 2 || s.Matrix() != m {
		t.Fatal("signal accessors broken")
	}
	col := s.Column(1)
	if len(col) != 4 || col[3] != 7 {
		t.Fatalf("column copy %v", col)
	}
	col[0] = 99 // owned copy: must not write through
	if m.At(0, 1) != 0 {
		t.Fatal("Column must return an owned copy")
	}
	if ParseEngineName := EngineSync.String(); ParseEngineName != "sync" {
		t.Fatalf("EngineSync name %q", ParseEngineName)
	}
	if e, err := ParseEngine("sync"); err != nil || e != EngineSync {
		t.Fatalf("ParseEngine(sync) = %v, %v", e, err)
	}
}
