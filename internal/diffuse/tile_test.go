package diffuse

import (
	"fmt"
	"reflect"
	"testing"

	"diffusearch/internal/vecmath"
)

func TestTileWidths(t *testing.T) {
	cases := []struct {
		name             string
		n, cols, colTile int
		want             []int
	}{
		{"narrow batch is one tile on auto", 4039, 255, 0, []int{255}},
		{"explicit override below auto threshold", 70, 8, 7, []int{7, 1}},
		{"explicit exact multiple", 70, 21, 7, []int{7, 7, 7}},
		{"explicit wider than batch is one tile", 70, 5, 7, []int{5}},
		{"explicit width of the batch is one tile", 70, 512, 512, []int{512}},
		{"auto small graph fits whole batch in L2", 70, 512, 0, []int{512}},
		{"auto big graph tiles", 4039, 512, 0, []int{64, 64, 64, 64, 64, 64, 64, 64}},
		{"auto big graph ragged tail", 4039, 300, 0, []int{64, 64, 64, 64, 44}},
		{"empty batch", 70, 0, 0, []int{0}},
		{"empty graph", 0, 512, 0, []int{512}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := tileWidths(c.n, c.cols, c.colTile)
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("tileWidths(%d, %d, %d) = %v, want %v", c.n, c.cols, c.colTile, got, c.want)
			}
			sum := 0
			for _, w := range got {
				if w <= 0 && c.cols > 0 {
					t.Fatalf("non-positive tile width in %v", got)
				}
				sum += w
			}
			if sum != c.cols {
				t.Fatalf("tile widths %v sum to %d, want %d", got, sum, c.cols)
			}
		})
	}
}

// TestNegativeColTileRejected pins the two-mode knob: there is no
// "disable tiling" mode to select any more, so a negative width is a
// caller bug every engine reports before touching the signal.
func TestNegativeColTileRejected(t *testing.T) {
	tr := signalGraph(t)
	e0 := sparseColumns(3, tr.Graph().NumNodes(), 4)
	for _, eng := range []Engine{EngineSync, EngineAsynchronous, EngineParallel, EngineParallelGS} {
		if _, _, err := RunSignal(eng, tr, NewSignal(e0), Params{Alpha: 0.5, ColTile: -1}, 1); err == nil {
			t.Errorf("RunSignal(%v) accepted ColTile -1", eng)
		}
		if _, _, err := Run(eng, tr, e0, Params{Alpha: 0.5, ColTile: -1}, 1); err == nil {
			t.Errorf("Run(%v) accepted ColTile -1", eng)
		}
	}
}

// TestTiledBitIdenticalToUntiled is the column-plan correctness property:
// for every engine, any column tiling — a forced width with a ragged final
// tile, the auto policy, a width that divides nothing evenly — must
// reproduce the one-tile plan (ColTile = B, the layout formerly called
// untiled) bit for bit — scores, Stats, per-column sweep counts, and the
// Observer's per-sweep records alike. The plan is a loop-order change
// only. That the one-tile plan itself is right is the oracle test's job
// (TestEnginesMatchDenseClosedForm).
func TestTiledBitIdenticalToUntiled(t *testing.T) {
	tr := signalGraph(t)
	n := tr.Graph().NumNodes()
	const tile = 7
	engines := []Engine{EngineSync, EngineAsynchronous, EngineParallel, EngineParallelGS}
	// tile-1 and tile+1 exercise the degenerate single-tile plan and the
	// ragged one-column final tile; 512 covers a wide batch (73 full
	// tiles plus a ragged tail of width 1).
	for _, b := range []int{1, tile - 1, tile, tile + 1, 512} {
		e0 := sparseColumns(uint64(40+b), n, b)
		for _, eng := range engines {
			for _, workers := range []int{1, 4} {
				if workers != 1 && eng != EngineParallel && eng != EngineParallelGS {
					continue // sync/async ignore Workers
				}
				t.Run(fmt.Sprintf("%v/b=%d/w=%d", eng, b, workers), func(t *testing.T) {
					run := func(colTile int) (*Signal, Stats, *recordingObserver) {
						obs := &recordingObserver{}
						p := Params{Alpha: 0.5, Tol: 1e-8, Workers: workers, ColTile: colTile, Observe: obs}
						out, st, err := RunSignal(eng, tr, NewSignal(e0), p, 11)
						if err != nil {
							t.Fatal(err)
						}
						return out, st, obs
					}
					plain, pst, pobs := run(b) // one tile spanning the batch
					for _, colTile := range []int{tile, 0, 3} {
						tiled, tst, tobs := run(colTile)
						if d := vecmath.MaxAbsDiffMatrix(tiled.Matrix(), plain.Matrix()); d != 0 {
							t.Errorf("ColTile %d: output differs from one tile by %g (must be bit-identical)", colTile, d)
						}
						if tst.Sweeps != pst.Sweeps || tst.Updates != pst.Updates ||
							tst.Messages != pst.Messages || tst.Residual != pst.Residual ||
							tst.Converged != pst.Converged {
							t.Errorf("ColTile %d: stats diverged: tiled %+v vs one tile %+v", colTile, tst, pst)
						}
						if !reflect.DeepEqual(tst.ColumnSweeps, pst.ColumnSweeps) {
							t.Errorf("ColTile %d: ColumnSweeps diverged: tiled %v vs one tile %v", colTile, tst.ColumnSweeps, pst.ColumnSweeps)
						}
						if !reflect.DeepEqual(tobs.stats, pobs.stats) {
							t.Errorf("ColTile %d: observer records diverged:\ntiled    %+v\none tile %+v", colTile, tobs.stats, pobs.stats)
						}
					}
				})
			}
		}
	}
}

// TestTiledBatchMatchesSolo closes the loop with the existing per-column
// property: a tiled batch must still equal diffusing each column alone,
// so tiling composes with per-column early termination.
func TestTiledBatchMatchesSolo(t *testing.T) {
	tr := signalGraph(t)
	n := tr.Graph().NumNodes()
	const b = 9
	e0 := sparseColumns(13, n, b)
	p := Params{Alpha: 0.4, Tol: 1e-9, ColTile: 4}
	for _, eng := range []Engine{EngineSync, EngineAsynchronous, EngineParallelGS} {
		out, st, err := RunSignal(eng, tr, NewSignal(e0), p, 11)
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
		for j := 0; j < b; j++ {
			want, wst := soloColumn(t, eng, tr, e0, j, p, 11)
			got := out.Column(j)
			for u := range got {
				if got[u] != want[u] {
					t.Fatalf("engine %v column %d node %d: tiled batch %v != solo %v", eng, j, u, got[u], want[u])
				}
			}
			if st.ColumnSweeps[j] != wst.ColumnSweeps[0] {
				t.Fatalf("engine %v column %d: batch sweeps %d != solo sweeps %d", eng, j, st.ColumnSweeps[j], wst.ColumnSweeps[0])
			}
		}
	}
}
