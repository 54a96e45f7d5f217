package diffuse

import (
	"diffusearch/internal/vecmath"
)

// Column plan: every Signal run diffuses its batch as an ordered list of
// column tiles held in physically separate matrices, and each sweep runs
// tile by tile (see sweep.go). The default plan is one tile spanning the
// batch. Wide signals (B ≥ wideTileMin) are split into tiles of T columns
// so the per-tile iterate (n×T) fits in L2 next to the streamed CSR row
// data, where the full n×B iterate of a wide batch does not — the gathered
// source rows of the affine kernel stop missing to outer cache levels.
//
// The plan is a pure loop-order choice: per-column trajectories, residuals,
// retirement sweeps (Stats.ColumnSweeps), and Observer sweep aggregates
// are bit-for-bit identical for every plan. Params.ColTile selects it: 0
// picks the width from the cache model below (one tile below wideTileMin),
// a positive value forces that tile width at any batch width (≥ B means
// one tile).
const (
	// wideTileMin is the batch width at which auto-tiling engages. Below
	// it the whole iterate comfortably fits cache.
	wideTileMin = 256
	// tileL2Bytes is the cache model's per-core L2 budget for one tile of
	// the source iterate; the CSR row stream is sequential and prefetched,
	// so it needs no residency of its own. The committed bench snapshot
	// records the hardware this default was tuned on; hosts with other
	// cache sizes can override per request via ColTile.
	tileL2Bytes = 2 << 20
	// tileMinWidth floors the auto-picked width: below it the per-tile CSR
	// restream dominates the cache win.
	tileMinWidth = 16
)

// tileWidths plans the column tile widths for a batch of cols columns
// over an n-node graph: the widths sum to cols, and a single entry means
// the batch runs as one tile.
func tileWidths(n, cols, colTile int) []int {
	t := colTile
	if t == 0 {
		t = cols
		if cols >= wideTileMin && n > 0 {
			// Tile fits L2 alongside the CSR row stream: T ≈ L2 / (8n),
			// rounded down to a multiple of 8 for row alignment.
			t = max(tileL2Bytes/(8*n)&^7, tileMinWidth)
		}
	}
	if t >= cols {
		return []int{cols}
	}
	widths := make([]int, 0, (cols+t-1)/t)
	for rem := cols; rem > 0; rem -= t {
		widths = append(widths, min(t, rem)) // ragged final tile
	}
	return widths
}

// AutoTileWidth reports the tile width the auto policy (ColTile 0) picks
// for a cols-wide batch on an n-node graph; cols itself means auto runs
// the batch as one tile. Exported so benchmarks and admin surfaces can
// report the realized width without re-deriving the cache model.
func AutoTileWidth(n, cols int) int { return tileWidths(n, cols, 0)[0] }

// colTile is one column tile of a run: a private slice of the batch with
// its own compact active block (cb.act is tile-local; out and sweeps are
// shared across tiles through the embedded colBlock) and iterate matrices.
// Tiles only ever shrink — retirement repacks within a tile, never
// rebalances across tiles.
type colTile struct {
	cb  colBlock
	cur *vecmath.Matrix
	// The tile's personalization columns are served one of two ways: as a
	// contiguous row slice of the input matrix (e0v/e0lo — free to set up,
	// valid while the tile's active slots are still the original column
	// range) or as a materialized compact matrix (e0c). Every tile starts
	// on the view; the first retirement compaction materializes, since the
	// surviving columns stop being contiguous in the input.
	e0c  *vecmath.Matrix // compact personalization; nil while the view serves
	e0v  *vecmath.Matrix // input matrix backing the view
	e0lo int             // first input column of the view
	next *vecmath.Matrix // nil for the in-place engines
	// res[w][k] is worker w's residual maximum for active slot k over the
	// sweep in progress — the cr argument of vecmath.ResidMax*. One slice
	// per worker so goroutines never share a residual slot.
	res [][]float64
}

// width returns the tile's current active width.
func (t *colTile) width() int { return len(t.cb.act) }

// e0row returns the tile's personalization row for node u, width() wide.
func (t *colTile) e0row(u int) []float64 {
	if t.e0c != nil {
		return t.e0c.Row(u)
	}
	return t.e0v.Row(u)[t.e0lo : t.e0lo+len(t.cb.act)]
}

// retireSweep retires the tile's converged slots and repacks its
// matrices. cr must be the tile's merged residuals for the sweep.
func (t *colTile) retireSweep(cr []float64, thresh float64, sweep int) {
	keep, _ := t.cb.retireSweep(cr, thresh, sweep, t.cur)
	if keep == nil {
		return
	}
	t.cur = vecmath.SelectColumns(t.cur, keep)
	if t.e0c != nil {
		t.e0c = vecmath.SelectColumns(t.e0c, keep)
	} else {
		idx := make([]int, len(keep))
		for k, slot := range keep {
			idx[k] = t.e0lo + slot
		}
		t.e0c = vecmath.SelectColumns(t.e0v, idx)
		t.e0v = nil
	}
	if t.next != nil {
		t.next = vecmath.NewMatrix(t.cur.Rows(), len(keep))
	}
	for w := range t.res {
		t.res[w] = t.res[w][:len(keep)]
	}
}

// newRes allocates zeroed residual slots for a width-wide tile.
func newRes(workers, width int) [][]float64 {
	res := make([][]float64, workers)
	for w := range res {
		res[w] = make([]float64, width)
	}
	return res
}

// tileSet is the column state of one run: the finalized output and
// per-column sweep counts (shared by every tile's colBlock) plus the
// tiles in column order.
type tileSet struct {
	out    *vecmath.Matrix
	sweeps []int
	tiles  []*colTile
	// capWidth is the widest planned tile: the coalescing target. As
	// retirement shrinks tiles, consecutive tiles whose combined active
	// width fits capWidth are merged back into one, so the late sweeps of
	// a run pay one affine-kernel call per node instead of one per
	// skinny leftover tile.
	capWidth int
}

// newTileSet splits sig into tiles of the planned widths, each with
// residual slots for workers goroutines. needNext allocates the
// double-buffer matrices used by the barrier engines; the in-place engines
// pass false.
func newTileSet(sig *Signal, widths []int, workers int, needNext bool) *tileSet {
	n, cols := sig.mat.Rows(), sig.mat.Cols()
	ts := &tileSet{
		out:      vecmath.NewMatrix(n, cols),
		sweeps:   make([]int, cols),
		tiles:    make([]*colTile, 0, len(widths)),
		capWidth: widths[0], // full tiles first; only the last is ragged
	}
	lo := 0
	for _, w := range widths {
		act := make([]int, w)
		for k := 0; k < w; k++ {
			act[k] = lo + k
		}
		cur := vecmath.NewMatrix(n, w)
		for u := 0; u < n; u++ {
			copy(cur.Row(u), sig.mat.Row(u)[lo:lo+w])
		}
		t := &colTile{
			cb:   colBlock{act: act, out: ts.out, sweeps: ts.sweeps},
			cur:  cur,
			e0v:  sig.mat,
			e0lo: lo,
			res:  newRes(workers, w),
		}
		if needNext {
			t.next = vecmath.NewMatrix(n, w)
		}
		ts.tiles = append(ts.tiles, t)
		lo += w
	}
	return ts
}

// live appends the tiles that still have active columns to dst (reused
// across sweeps) and returns it. Consecutive shrunken tiles are first
// coalesced whenever their combined width fits capWidth: tiles are
// ordered partitions of the batch, and every engine's per-column work is
// independent of how active columns are grouped into tiles, so merging
// preserves bit-identity (the concatenated compact order — the order the
// observer and the residual merge see — is unchanged) while restoring full
// kernel widths for the tail of the run.
func (ts *tileSet) live(dst []*colTile) []*colTile {
	dst = dst[:0]
	for _, t := range ts.tiles {
		if t.width() > 0 {
			dst = append(dst, t)
		}
	}
	merge := false
	for i := 1; i < len(dst); i++ {
		if dst[i-1].width()+dst[i].width() <= ts.capWidth {
			merge = true
			break
		}
	}
	if !merge {
		return dst
	}
	out := make([]*colTile, 0, len(dst))
	for lo := 0; lo < len(dst); {
		hi, w := lo+1, dst[lo].width()
		for hi < len(dst) && w+dst[hi].width() <= ts.capWidth {
			w += dst[hi].width()
			hi++
		}
		if hi-lo > 1 {
			out = append(out, coalesceTiles(dst[lo:hi], w))
		} else {
			out = append(out, dst[lo])
		}
		lo = hi
	}
	ts.tiles = append(ts.tiles[:0], out...)
	return out
}

// coalesceTiles merges consecutive live tiles of combined active width w
// into one tile, concatenating their active blocks and column data in
// order. The merged tile shares the run's out/sweeps state like every
// tile.
func coalesceTiles(group []*colTile, w int) *colTile {
	n := group[0].cur.Rows()
	m := &colTile{
		cb:  colBlock{act: make([]int, 0, w), out: group[0].cb.out, sweeps: group[0].cb.sweeps},
		cur: vecmath.NewMatrix(n, w),
		e0c: vecmath.NewMatrix(n, w),
		res: newRes(len(group[0].res), w),
	}
	if group[0].next != nil {
		m.next = vecmath.NewMatrix(n, w)
	}
	off := 0
	for _, t := range group {
		m.cb.act = append(m.cb.act, t.cb.act...)
		tw := t.width()
		for u := 0; u < n; u++ {
			copy(m.cur.Row(u)[off:off+tw], t.cur.Row(u))
			copy(m.e0c.Row(u)[off:off+tw], t.e0row(u))
		}
		off += tw
	}
	return m
}

// activeWidth returns the total active columns across all tiles.
func (ts *tileSet) activeWidth() int {
	w := 0
	for _, t := range ts.tiles {
		w += t.width()
	}
	return w
}

// retireAll finalizes every still-active column of every tile at sweep.
func (ts *tileSet) retireAll(sweep int) {
	for _, t := range ts.tiles {
		if t.width() > 0 {
			t.cb.retireAll(sweep, t.cur)
		}
	}
}
