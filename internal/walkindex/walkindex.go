// Package walkindex is the precompute tier of the scoring stack: a second
// core.Scorer backend (alongside the single-CSR scorer) that turns cold diffusions into lookup+combine, in the spirit of
// PowerWalk's decomposition of PPR into per-vertex random-walk segments.
//
// Offline, the backend diffuses unit impulses δ_v for a configured seed
// set (by default every document host) through the existing diffuse
// engines and stores the resulting PPR columns ĥ_v ≈ H·δ_v as compact
// sparse rows, truncated at Theta and bounded by a byte Budget. Online,
// DiffuseSignal exploits the linearity of the diffusion fixed point
// e = α·x + (1−α)·A·e (whose solution is e = H·x with
// H = α(I−(1−α)A)⁻¹): it assembles p = Σ_v x[v]·ĥ_v over the query
// signal's support and then finishes the exact residual
//
//	r = x + ((1−α)·A·p − p)/α
//
// with a (now tiny) engine diffusion, because H·r = H·x − p identically
// for ANY p. Truncated, stale, or missing segments therefore cost speed,
// never accuracy: the returned scores carry exactly the engine's own
// accuracy at the request's Tol, the same contract as the CSR backend.
// Each segment additionally carries an exact build-time residual
// certificate (see segment.errL1); when the certificates of a query's
// support already bound ‖r‖₁ inside the request tolerance, the backend
// skips the residual computation itself and the warm path collapses to
// pure lookup+combine.
// An empty store, a request at a different alpha, or a node-count
// mismatch bypasses to a plain engine run.
//
// Staleness contract: PatchTopology installs a new transition operator,
// drops the segments of the patch's closed neighbourhood (the most
// perturbed columns) plus any segment that references a node the new
// graph no longer has, and keeps the rest — they are approximations the
// online residual corrects, so serving continues uninterrupted while a
// background Refresher rebuilds the dropped segments at Bulk priority
// through the serve scheduler.
package walkindex

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/graph"
	"diffusearch/internal/vecmath"
)

// DefaultTheta is the default segment accuracy: the offline build
// diffuses to this tolerance and truncates stored entries below it.
// It is deliberately far below the request tolerances the serve layer
// uses (core.DefaultScoreTol = 1e-8), so that the combined a-priori
// residual bound Σ|x_v|·errL1_v of a fully-covered query clears the
// request tolerance and DiffuseSignal takes the lookup-only fast path:
// no residual pass, no finish diffusion, just the segment combine.
// Near-dense columns store the full column regardless of Theta (see
// segment), so on small-world graphs the tighter default costs build
// sweeps, not bytes.
const DefaultTheta = 1e-12

// DefaultBudget bounds the segment store payload (ids + weights) at
// 64 MiB — roomy for the paper graph (≈500 doc-host segments of ≤n
// entries), tight enough that a million-node deployment must choose its
// seeds.
const DefaultBudget = 64 << 20

// DefaultBuildBlock is how many seed columns one offline diffusion
// carries: wide enough to amortize sweeps across columns (the same
// economics as serve batching), small enough that a topology patch
// mid-build discards little work.
const DefaultBuildBlock = 64

// Config parameterizes a Backend.
type Config struct {
	// Alpha is the teleport probability the segments are built for.
	// Requests at any other alpha bypass the index (the segments encode
	// H, which depends on alpha). Required; Attach defaults it to the
	// network's recorded alpha when left zero.
	Alpha float64
	// Theta is the segment accuracy: offline build tolerance and the
	// truncation threshold for stored entries. 0 means DefaultTheta.
	Theta float64
	// Budget bounds the store payload in bytes (sparse entries cost 12,
	// dense entries 8). 0 means DefaultBudget; negative means unbounded.
	// When the budget fills, remaining seeds stay unindexed — their
	// queries simply keep more work in the finish diffusion.
	Budget int64
	// BuildBlock is the number of seed columns per offline diffusion.
	// 0 means DefaultBuildBlock.
	BuildBlock int
	// Engine drives the offline build diffusions. 0 means EngineParallel.
	Engine diffuse.Engine
	// Workers bounds the build diffusion's worker pool (Parallel engine).
	Workers int
	// MaxSweeps bounds each build diffusion; 0 means the engine default.
	MaxSweeps int
	// Seed feeds the asynchronous build engine's permutation stream.
	Seed uint64
	// Seeds is the node set to index, in build-priority order. Attach
	// defaults it to DocSeeds (document hosts, hubs first).
	Seeds []graph.NodeID
}

func (c Config) withDefaults() Config {
	if c.Theta <= 0 {
		c.Theta = DefaultTheta
	}
	if c.Budget == 0 {
		c.Budget = DefaultBudget
	}
	if c.BuildBlock <= 0 {
		c.BuildBlock = DefaultBuildBlock
	}
	if c.Engine == 0 {
		c.Engine = diffuse.EngineParallel
	}
	return c
}

// segment is one stored PPR column ĥ_v ≈ H·δ_v, immutable once built.
// A nil ids slice marks the dense representation (w has one entry per
// node): PPR columns on small-world graphs are near-dense at any useful
// Theta, and dense rows are both smaller (8 vs 12 bytes per entry) and
// faster to combine than an index-indirected scatter.
//
// errL1 is the exact residual mass ‖δ_v + ((1−α)·A·ĥ_v − ĥ_v)/α‖₁,
// measured at build time against the operator the segment was built
// for. Because the online residual is linear in the segments
// (r = Σ_v x_v·r_v), DiffuseSignal can bound a query column's ‖r‖₁ by
// Σ|x_v|·errL1_v during assembly — before computing r — and skip the
// residual pass outright when the bound clears the request tolerance.
// PatchTopology poisons the bound (+Inf) on kept-but-stale segments:
// they still combine for speed, but only the a-posteriori residual can
// vouch for them under the new operator.
type segment struct {
	ids   []int32
	w     []float64
	errL1 float64
}

// maxID returns the largest node id the segment references (ids are
// stored ascending; dense segments span [0, len(w))).
func (s *segment) maxID() int {
	if s.ids == nil {
		return len(s.w) - 1
	}
	if len(s.ids) == 0 {
		return -1
	}
	return int(s.ids[len(s.ids)-1])
}

// bytes is the payload accounting the Budget bounds.
func (s *segment) bytes() int64 {
	return int64(len(s.ids))*4 + int64(len(s.w))*8
}

// Backend is the walk-index core.Scorer. Construct with NewBackend or
// Attach; all methods are safe for concurrent use. Segments are
// immutable and the segment slice is replaced copy-on-write, so the
// scoring path takes only a brief read lock to snapshot (tr, segs).
type Backend struct {
	cfg Config

	mu     sync.RWMutex
	tr     *graph.Transition
	segs   []*segment // len == NumNodes; nil = not built; COW — see below
	wanted []bool     // seed membership, len == NumNodes
	seeds  []graph.NodeID
	gen    uint64 // bumped by PatchTopology/SetSeeds: stales in-flight builds
	bytes  int64
	built  int
	// saturated is set when insert rejected a segment for the byte budget
	// and cleared whenever budget frees or the store changes shape (gen
	// bump, segment eviction). While set, MissingSeeds reports no work, so
	// the Refresher does not re-diffuse blocks it can never land.
	saturated bool
}

// mutableSegs returns a private clone of b.segs for callers (holding mu)
// that are about to overwrite elements. DiffuseSignal snapshots b.segs
// under RLock and keeps reading it after releasing the lock, so a
// published slice's elements are immutable: every element write must go
// through a clone that is then republished (copy-on-write).
func (b *Backend) mutableSegs() []*segment {
	return append([]*segment(nil), b.segs...)
}

// NewBackend creates a walk-index backend over tr. The store starts
// empty: call Build (or run a Refresher) to populate it; until then
// every request bypasses to a plain engine diffusion.
func NewBackend(tr *graph.Transition, cfg Config) (*Backend, error) {
	if tr == nil {
		return nil, fmt.Errorf("walkindex: nil transition")
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("walkindex: alpha %g outside (0,1]", cfg.Alpha)
	}
	cfg = cfg.withDefaults()
	n := tr.Graph().NumNodes()
	b := &Backend{
		cfg:    cfg,
		tr:     tr,
		segs:   make([]*segment, n),
		wanted: make([]bool, n),
	}
	b.setSeedsLocked(cfg.Seeds)
	return b, nil
}

// setSeedsLocked installs the seed set (callers hold mu or own b
// exclusively) and drops segments that are no longer wanted, freeing
// their budget.
func (b *Backend) setSeedsLocked(seeds []graph.NodeID) {
	n := len(b.segs)
	for i := range b.wanted {
		b.wanted[i] = false
	}
	b.seeds = b.seeds[:0]
	for _, s := range seeds {
		if s < 0 || s >= n || b.wanted[s] {
			continue
		}
		b.wanted[s] = true
		b.seeds = append(b.seeds, s)
	}
	var segs []*segment // cloned lazily: most seed swaps drop nothing
	for u, seg := range b.segs {
		if seg != nil && !b.wanted[u] {
			if segs == nil {
				segs = b.mutableSegs()
			}
			b.bytes -= seg.bytes()
			b.built--
			segs[u] = nil
		}
	}
	if segs != nil {
		b.segs = segs
		b.saturated = false // eviction freed budget: there may be room again
	}
}

// SetSeeds replaces the seed set (e.g. after a document placement
// change): segments for dropped seeds are freed, segments for retained
// seeds are kept, new seeds build lazily. In-flight builds are staled.
func (b *Backend) SetSeeds(seeds []graph.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gen++
	b.saturated = false
	b.setSeedsLocked(seeds)
}

// MissingSeeds returns up to max wanted seeds that have no segment yet,
// in build-priority order — or none while the byte budget is saturated:
// once insert rejects a segment for budget, re-diffusing the remaining
// seeds would only discard the result again, so the work queue reads
// empty until budget frees (a gen bump or a segment eviction clears the
// flag). It is the Refresher's work queue.
func (b *Backend) MissingSeeds(max int) []graph.NodeID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.saturated || (b.cfg.Budget > 0 && b.bytes >= b.cfg.Budget) {
		return nil
	}
	var out []graph.NodeID
	for _, s := range b.seeds {
		if b.segs[s] != nil {
			continue
		}
		out = append(out, s)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// BuildSeeds diffuses and stores segments for the given seeds in
// BuildBlock-wide blocks, returning how many were inserted. Insertion
// stops silently at the byte budget, and a topology patch or seed swap
// racing the build discards the stale results (they were computed
// against a transition the patch declared dead) — the caller simply
// sees fewer insertions and the Refresher retries on its next pass.
func (b *Backend) BuildSeeds(seeds []graph.NodeID) (int, error) {
	b.mu.RLock()
	tr, gen := b.tr, b.gen
	b.mu.RUnlock()
	n := tr.Graph().NumNodes()
	inserted := 0
	for lo := 0; lo < len(seeds); lo += b.cfg.BuildBlock {
		hi := lo + b.cfg.BuildBlock
		if hi > len(seeds) {
			hi = len(seeds)
		}
		chunk := make([]graph.NodeID, 0, hi-lo)
		for _, s := range seeds[lo:hi] {
			if s >= 0 && s < n {
				chunk = append(chunk, s)
			}
		}
		if len(chunk) == 0 {
			continue
		}
		delta := vecmath.NewMatrix(n, len(chunk))
		for i, s := range chunk {
			delta.Set(s, i, 1)
		}
		p := diffuse.Params{Alpha: b.cfg.Alpha, Tol: b.cfg.Theta, MaxSweeps: b.cfg.MaxSweeps, Workers: b.cfg.Workers}
		out, _, err := diffuse.RunSignal(b.cfg.Engine, tr, diffuse.NewSignal(delta), p, b.cfg.Seed)
		if err != nil && !errors.Is(err, diffuse.ErrNoConvergence) {
			// A sweep-budget miss still yields a usable approximation
			// (the online residual absorbs its error); anything else is a
			// real failure.
			return inserted, err
		}
		m := out.Matrix()
		segs := make([]*segment, len(chunk))
		for i := range chunk {
			segs[i] = truncate(m, i, n, b.cfg.Theta)
		}
		measureResiduals(tr, chunk, segs, b.cfg.Alpha)
		ins, ok := b.insert(gen, chunk, segs)
		inserted += ins
		if !ok {
			return inserted, nil
		}
	}
	return inserted, nil
}

// truncate extracts column col of m as a segment, dropping entries below
// theta. Near-dense columns store the full column instead (smaller and
// faster; see segment).
func truncate(m *vecmath.Matrix, col, n int, theta float64) *segment {
	nnz := 0
	for u := 0; u < n; u++ {
		if v := m.At(u, col); v >= theta || v <= -theta {
			nnz++
		}
	}
	if 3*nnz >= 2*n { // 12·nnz sparse bytes ≥ 8·n dense bytes
		w := make([]float64, n)
		for u := 0; u < n; u++ {
			w[u] = m.At(u, col)
		}
		return &segment{w: w}
	}
	ids := make([]int32, 0, nnz)
	w := make([]float64, 0, nnz)
	for u := 0; u < n; u++ {
		if v := m.At(u, col); v >= theta || v <= -theta {
			ids = append(ids, int32(u))
			w = append(w, v)
		}
	}
	return &segment{ids: ids, w: w}
}

// measureResiduals fills each segment's errL1 with the exact residual
// mass ‖δ_s + ((1−α)·A·ĥ_s − ĥ_s)/α‖₁ of the truncated column against
// tr — one CSR pass over the whole block, a rounding error next to the
// diffusion that built it. This is the a-priori certificate the online
// skip gate trades on: whatever the engine tolerance and the truncation
// actually left behind, measured, not bounded.
func measureResiduals(tr *graph.Transition, seeds []graph.NodeID, segs []*segment, alpha float64) {
	n := tr.Graph().NumNodes()
	ph := vecmath.NewMatrix(n, len(segs))
	for i, seg := range segs {
		if seg.ids == nil {
			for u, w := range seg.w {
				ph.Set(u, i, w)
			}
			continue
		}
		for k, id := range seg.ids {
			ph.Set(int(id), i, seg.w[k])
		}
	}
	errs := make([]float64, len(segs))
	tmp := make([]float64, len(segs))
	invAlpha := 1 / alpha
	for u := 0; u < n; u++ {
		vecmath.Zero(tmp)
		tr.ApplyRow(tmp, u, 1-alpha, ph)
		prow := ph.Row(u)
		for i := range errs {
			rv := (tmp[i] - prow[i]) * invAlpha
			if u == seeds[i] {
				rv++
			}
			errs[i] += math.Abs(rv)
		}
	}
	for i, seg := range segs {
		seg.errL1 = errs[i]
	}
}

// insert lands built segments in the store under the budget bound. ok is
// false when insertion must stop: the budget filled (which also marks
// the store saturated — see MissingSeeds), or gen shows a patch/seed
// swap staled the build.
func (b *Backend) insert(gen uint64, seeds []graph.NodeID, segs []*segment) (inserted int, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.gen != gen {
		return 0, false
	}
	next := b.mutableSegs()
	defer func() {
		if inserted > 0 {
			b.segs = next
		}
	}()
	for i, s := range seeds {
		if next[s] != nil || !b.wanted[s] {
			continue
		}
		sb := segs[i].bytes()
		if b.cfg.Budget > 0 && b.bytes+sb > b.cfg.Budget {
			b.saturated = true
			return inserted, false
		}
		next[s] = segs[i]
		b.bytes += sb
		b.built++
		inserted++
	}
	return inserted, true
}

// Build populates the store for every wanted seed until none is missing
// or the budget fills, and returns how many segments were inserted.
func (b *Backend) Build() (int, error) {
	total := 0
	for {
		miss := b.MissingSeeds(b.cfg.BuildBlock)
		if len(miss) == 0 {
			return total, nil
		}
		ins, err := b.BuildSeeds(miss)
		total += ins
		if err != nil {
			return total, err
		}
		if ins == 0 {
			// Budget full or a racing patch keeps staling us; either way
			// this pass cannot make progress.
			return total, nil
		}
	}
}

// PatchTopology installs the transition operator of a patched topology
// and applies the staleness contract: segments of the patch's closed
// neighbourhood (the changed nodes plus their neighbours in either
// topology — what cmd/peerd's SIGHUP path computes) are dropped, as is
// any segment referencing a node id the new graph no longer has. The
// rest are kept stale-but-safe: the online residual finish runs against
// the NEW operator, so their error costs finish rounds, not accuracy.
// In-flight builds against the old operator are discarded via the
// generation counter.
func (b *Backend) PatchTopology(tr *graph.Transition, changed []graph.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gen++
	b.saturated = false
	b.tr = tr
	n := tr.Graph().NumNodes()
	old := b.segs
	b.segs = make([]*segment, n)
	b.bytes = 0
	b.built = 0
	for u := 0; u < n && u < len(old); u++ {
		if seg := old[u]; seg != nil && seg.maxID() < n {
			// Kept segments still combine, but their residual certificate
			// was measured against the operator this patch just retired:
			// poison it so the a-priori skip never trusts them — the
			// a-posteriori residual pass serves their queries exactly.
			b.segs[u] = &segment{ids: seg.ids, w: seg.w, errL1: math.Inf(1)}
			b.bytes += seg.bytes()
			b.built++
		}
	}
	for _, id := range changed {
		if id < 0 || id >= n {
			continue
		}
		if seg := b.segs[id]; seg != nil {
			b.bytes -= seg.bytes()
			b.built--
			b.segs[id] = nil
		}
	}
	b.wanted = make([]bool, n)
	b.setSeedsLocked(b.seeds)
}

// StoreBytes returns the store's payload size in bytes (the quantity
// Budget bounds) — the memory gauge peerd prints at shutdown.
func (b *Backend) StoreBytes() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.bytes
}

// Segments returns how many seeds currently hold a built segment.
func (b *Backend) Segments() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.built
}

// SeedCount returns the size of the wanted seed set.
func (b *Backend) SeedCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.seeds)
}

// Coverage returns the built fraction of the seed set in [0,1].
func (b *Backend) Coverage() float64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(b.seeds) == 0 {
		return 0
	}
	return float64(b.built) / float64(len(b.seeds))
}

// Poisoned returns how many built segments carry an infinite error
// certificate — segments a topology patch invalidated, kept only so
// queries park their mass in the exact residual until the refresher
// rebuilds them. A persistently non-zero value means rebuild capacity is
// not keeping up with patch rate.
func (b *Backend) Poisoned() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n := 0
	for _, seg := range b.segs {
		if seg != nil && math.IsInf(seg.errL1, 1) {
			n++
		}
	}
	return n
}

// Saturated reports whether the store is pinned at its byte Budget with
// seeds still unbuilt — the signal that coverage stopped growing for
// capacity reasons rather than workload ones.
func (b *Backend) Saturated() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.saturated
}

// String summarizes the store for logs.
func (b *Backend) String() string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return fmt.Sprintf("walkindex: %d/%d segments, %d bytes (budget %d)",
		b.built, len(b.seeds), b.bytes, b.cfg.Budget)
}

// Diffuse is the embedding path (Network.Run): the index stores scalar
// PPR columns, not embedding diffusions, so it delegates to a plain
// engine run over the current operator.
func (b *Backend) Diffuse(e0 *vecmath.Matrix, engine diffuse.Engine, p diffuse.Params, seed uint64) (*vecmath.Matrix, diffuse.Stats, error) {
	b.mu.RLock()
	tr := b.tr
	b.mu.RUnlock()
	return diffuse.Run(engine, tr, e0, p, seed)
}

// DiffuseSignal is the scoring hot path: assemble from segments, compute
// the exact residual, finish it with the requested engine. See the
// package comment for the identity that makes any segment state safe.
func (b *Backend) DiffuseSignal(sig *diffuse.Signal, engine diffuse.Engine, p diffuse.Params, seed uint64) (*diffuse.Signal, diffuse.Stats, error) {
	b.mu.RLock()
	tr, segs, built := b.tr, b.segs, b.built
	b.mu.RUnlock()
	n := tr.Graph().NumNodes()
	if built == 0 || p.Alpha != b.cfg.Alpha || sig.Nodes() != n {
		// Nothing to combine (or the segments encode a different H):
		// plain engine run, bit-identical to the CSR backend.
		return diffuse.RunSignal(engine, tr, sig, p, seed)
	}
	cols := sig.Columns()
	x := sig.Matrix()

	// Assemble p = Σ_v x[v]·ĥ_v over the signal's support, accruing the
	// a-priori residual bound as we go: by linearity r = Σ_v x_v·r_v, so
	// ‖r_j‖₁ ≤ Σ_hit |x_vj|·errL1_v + Σ_miss |x_vj| (an unindexed support
	// row parks its whole mass in the residual).
	P := vecmath.NewMatrix(n, cols)
	bound := make([]float64, cols)
	assembled := false
	if cols == 1 {
		// The serving-latency case (B=1 after dedup): segments are
		// near-always dense here, so batch them up and let combineFused
		// stream four per pass over P.
		xd, data := x.Data(), P.Data()
		var ws [][]float64
		var xs []float64
		for v := 0; v < n; v++ {
			xv := xd[v]
			if xv == 0 {
				continue
			}
			seg := segs[v]
			if seg == nil {
				bound[0] += math.Abs(xv)
				continue
			}
			assembled = true
			bound[0] += math.Abs(xv) * seg.errL1
			if seg.ids == nil {
				ws = append(ws, seg.w)
				xs = append(xs, xv)
				continue
			}
			for k, id := range seg.ids {
				data[id] += xv * seg.w[k]
			}
		}
		combineFused(data, ws, xs)
	} else {
		for v := 0; v < n; v++ {
			xrow := x.Row(v)
			hit := false
			for _, xv := range xrow {
				if xv != 0 {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			seg := segs[v]
			if seg == nil {
				for j, xv := range xrow {
					bound[j] += math.Abs(xv)
				}
				continue
			}
			assembled = true
			for j, xv := range xrow {
				bound[j] += math.Abs(xv) * seg.errL1
			}
			combine(P, seg, xrow)
		}
	}
	if !assembled {
		return diffuse.RunSignal(engine, tr, sig, p, seed)
	}

	effTol := p.Tol
	if effTol <= 0 {
		effTol = diffuse.DefaultTol
	}
	skippable := tr.Kind() == graph.ColumnStochastic
	if skippable {
		// A-priori skip: every column's residual certificate already
		// clears the request tolerance, so neither the residual pass nor
		// the finish can improve the answer enough to matter —
		// lookup+combine was the whole query.
		allClear := true
		maxBound := 0.0
		for _, bd := range bound {
			if !(bd <= effTol) {
				allClear = false
				break
			}
			if bd > maxBound {
				maxBound = bd
			}
		}
		if allClear {
			return diffuse.NewSignal(P), diffuse.Stats{
				Updates:      int64(n),
				Residual:     maxBound,
				Converged:    true,
				ColumnSweeps: make([]int, cols),
			}, nil
		}
	}

	// Exact residual r = x + ((1−α)·A·p − p)/α against the CURRENT
	// operator: H·r = H·x − p for any p, so everything the segments got
	// wrong — truncation, staleness, missing seeds — lands in r.
	R := vecmath.NewMatrix(n, cols)
	tmp := make([]float64, cols)
	l1 := make([]float64, cols)
	invAlpha := 1 / p.Alpha
	for u := 0; u < n; u++ {
		vecmath.Zero(tmp)
		tr.ApplyRow(tmp, u, 1-p.Alpha, P)
		xrow, prow, rrow := x.Row(u), P.Row(u), R.Row(u)
		for j := range rrow {
			rv := xrow[j] + (tmp[j]-prow[j])*invAlpha
			rrow[j] = rv
			l1[j] += math.Abs(rv)
		}
	}

	// ℓ1 skip gate, a-posteriori round: for the column-stochastic operator
	// ‖A·z‖₁ ≤ ‖z‖₁, hence ‖H·r‖∞ ≤ ‖H·r‖₁ ≤ ‖r‖₁ — a column whose
	// MEASURED residual mass is inside the request tolerance needs no
	// finish even when its a-priori certificate (stale or missing
	// segments) could not promise that. Other normalizations always
	// finish.
	finish := make([]int, 0, cols)
	for j := 0; j < cols; j++ {
		if skippable && l1[j] <= effTol {
			continue
		}
		finish = append(finish, j)
	}

	st := diffuse.Stats{
		Updates:   int64(n),
		Messages:  2 * int64(tr.Graph().NumEdges()),
		Converged: true,
	}
	colSweeps := make([]int, cols)
	if len(finish) > 0 {
		sub := diffuse.NewSignal(vecmath.SelectColumns(R, finish))
		out, fst, err := diffuse.RunSignal(engine, tr, sub, p, seed)
		st.Updates += fst.Updates
		st.Messages += fst.Messages
		st.Sweeps = fst.Sweeps
		st.Residual = fst.Residual
		st.Converged = fst.Converged
		if err != nil {
			return nil, st, err
		}
		om := out.Matrix()
		for u := 0; u < n; u++ {
			prow, orow := P.Row(u), om.Row(u)
			for jj, j := range finish {
				prow[j] += orow[jj]
			}
		}
		for jj, j := range finish {
			if len(fst.ColumnSweeps) == len(finish) {
				colSweeps[j] = fst.ColumnSweeps[jj]
			} else {
				colSweeps[j] = fst.Sweeps
			}
		}
	}
	st.ColumnSweeps = colSweeps
	return diffuse.NewSignal(P), st, nil
}

// combine scatters xrow-weighted segment entries into P (the inner loop
// of assembly). Dense segments stream both arrays contiguously.
func combine(P *vecmath.Matrix, seg *segment, xrow []float64) {
	if len(xrow) == 1 {
		// The serving-latency case (B=1 after dedup): flatten the column
		// indexing out of the inner loop.
		xv := xrow[0]
		data := P.Data()
		if seg.ids == nil {
			for u, w := range seg.w {
				data[u] += xv * w
			}
			return
		}
		for k, id := range seg.ids {
			data[id] += xv * seg.w[k]
		}
		return
	}
	if seg.ids == nil {
		for u, w := range seg.w {
			if w == 0 {
				continue
			}
			prow := P.Row(u)
			for j, xv := range xrow {
				prow[j] += xv * w
			}
		}
		return
	}
	for k, id := range seg.ids {
		w := seg.w[k]
		prow := P.Row(int(id))
		for j, xv := range xrow {
			prow[j] += xv * w
		}
	}
}

// combineFused adds Σ_k xs[k]·ws[k] into data, four dense segments per
// pass: P is read and written once per quad instead of once per
// segment, and the four independent multiply-add chains keep the
// superscalar pipe full — assembly is the whole warm path once the
// a-priori skip fires, so this loop is the backend's speedup.
func combineFused(data []float64, ws [][]float64, xs []float64) {
	k := 0
	for ; k+4 <= len(ws); k += 4 {
		w0, w1, w2, w3 := ws[k], ws[k+1], ws[k+2], ws[k+3]
		if len(w0) < len(data) || len(w1) < len(data) || len(w2) < len(data) || len(w3) < len(data) {
			// A pre-patch segment from a smaller graph: fall through to
			// the ragged tail loop.
			break
		}
		x0, x1, x2, x3 := xs[k], xs[k+1], xs[k+2], xs[k+3]
		for u := range data {
			data[u] += x0*w0[u] + x1*w1[u] + x2*w2[u] + x3*w3[u]
		}
	}
	for ; k < len(ws); k++ {
		xv := xs[k]
		for u, w := range ws[k] {
			data[u] += xv * w
		}
	}
}

// DocSeeds returns the walk-index seed set a serving deployment wants:
// every node hosting at least one document (the only nodes a query
// signal can be nonzero at), highest degree first so the hubs whose
// diffusions cost the most build earliest under a tight budget.
func DocSeeds(net *core.Network) []graph.NodeID {
	perso := net.PersonalizationMatrix()
	if perso == nil {
		return nil
	}
	g := net.Graph()
	var seeds []graph.NodeID
	for u := 0; u < perso.Rows(); u++ {
		for _, v := range perso.Row(u) {
			if v != 0 {
				seeds = append(seeds, u)
				break
			}
		}
	}
	sort.SliceStable(seeds, func(i, j int) bool {
		return g.Degree(seeds[i]) > g.Degree(seeds[j])
	})
	return seeds
}

// IndexedNetwork is a Network scoring through a walk-index backend.
type IndexedNetwork struct {
	*core.Network
	backend *Backend
}

// Backend returns the attached walk-index backend (for Build, patches,
// refreshers, and gauges).
func (in *IndexedNetwork) Backend() *Backend { return in.backend }

// Attach installs a walk-index backend as net's scoring backend. Alpha
// defaults to the network's recorded alpha and Seeds to DocSeeds. The
// store starts empty — call Backend().Build() for a synchronous build,
// or run a Refresher to build at Bulk priority behind live traffic.
// SetScorer(nil) restores the single-CSR default.
func Attach(net *core.Network, cfg Config) (*IndexedNetwork, error) {
	if cfg.Alpha == 0 {
		cfg.Alpha = net.Alpha()
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = DocSeeds(net)
	}
	b, err := NewBackend(net.Transition(), cfg)
	if err != nil {
		return nil, err
	}
	net.SetScorer(b)
	return &IndexedNetwork{Network: net, backend: b}, nil
}
