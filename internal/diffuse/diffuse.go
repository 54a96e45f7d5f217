// Package diffuse implements the decentralized, asynchronous embedding
// diffusion of §IV-B: node pairs exchange embeddings and locally apply the
// update e_u ← (1−a)·Σ_v A[u][v]·ê_v + a·e0_u until the network reaches the
// PPR fixed point of eq. 6. Per p2pgnn [34], asynchronous updates converge
// to the synchronous solution provided no node starves.
//
// The engines (see Engine for selection) are visit orders of that one
// update over one sweep driver (sweep.go), which owns the active column
// block, per-column retirement, Stats, and the Observe hook:
//
//   - Synchronous: every node per sweep from the previous sweep's values;
//     the scoring-grade reference, bit-compatible with ppr.PPRFilter.
//   - Asynchronous: a deterministic, seeded replay of randomized single-node
//     updates (the Gauss–Seidel async model). The reference engine: used
//     where bit-for-bit reproducibility matters.
//   - Parallel: a residual-driven active-frontier engine (Gauss–Southwell
//     style) running on a fixed worker pool. Only nodes with significant
//     unseen incoming change (a receiver-aware threshold derived from
//     tol/4) are re-queued, so both wall-clock time and the Messages
//     bandwidth proxy drop sharply once the diffusion localizes. Converges
//     to the same fixed point within tolerance.
//   - ParallelGS: deterministic multi-color Gauss–Seidel (gs.go).
package diffuse

import (
	"errors"
	"fmt"

	"diffusearch/internal/graph"
	"diffusearch/internal/randx"
	"diffusearch/internal/vecmath"
)

// Default convergence controls.
const (
	DefaultTol       = 1e-6
	DefaultMaxSweeps = 500
)

// ErrNoConvergence is returned when the diffusion does not settle within
// its sweep budget.
var ErrNoConvergence = errors.New("diffuse: diffusion did not converge")

// Stats describes one diffusion run. Messages counts embedding transfers
// between distinct nodes (the bandwidth proxy: each message carries one
// row-sized vector — the full embedding in matrix mode, one value per
// batched column in Signal mode).
type Stats struct {
	Updates   int64 // local recomputations performed
	Messages  int64 // embedding vectors sent across edges
	Sweeps    int   // full passes (Asynchronous/Sync) or frontier rounds (Parallel)
	Residual  float64
	Converged bool

	// ColumnSweeps, set only by the column-blocked Signal kernels
	// (RunSignal), records per original column how many sweeps/rounds the
	// column stayed in the active block before its per-column residual
	// dropped below the engine's retirement threshold. Early-terminated
	// columns show smaller counts than Sweeps.
	ColumnSweeps []int
}

// Params configure a diffusion run.
type Params struct {
	Alpha     float64 // PPR teleport probability
	Tol       float64 // max-norm convergence tolerance; 0 means DefaultTol
	MaxSweeps int     // sweep/round budget; 0 means DefaultMaxSweeps
	Workers   int     // Parallel engine only: pool size; 0 means GOMAXPROCS

	// Observe, when non-nil, receives one SweepStat per sweep/round from
	// the column kernels (see Observer) — a read-only tap on the
	// convergence profile that can never change the result. Synchronous
	// ignores it.
	Observe Observer
}

func (p Params) controls() (tol float64, maxSweeps int) {
	tol, maxSweeps = p.Tol, p.MaxSweeps
	if tol <= 0 {
		tol = DefaultTol
	}
	if maxSweeps <= 0 {
		maxSweeps = DefaultMaxSweeps
	}
	return tol, maxSweeps
}

func (p Params) validate() error {
	if p.Alpha <= 0 || p.Alpha > 1 {
		return fmt.Errorf("diffuse: teleport probability %v out of (0,1]", p.Alpha)
	}
	return nil
}

// Asynchronous runs the randomized asynchronous diffusion in matrix mode:
// the embedding-diffusion entry point behind Run(EngineAsynchronous). Each
// step picks one node (a fresh permutation per sweep, via r) and recomputes
// its embedding from its neighbours' most recent embeddings, in place. It
// is AsynchronousColumns over the embedding dimensions; converged
// dimensions freeze individually, within tol of the joint fixed point like
// every column kernel.
//
// The returned matrix holds one diffused node embedding per row. The input
// e0 is not modified.
func Asynchronous(tr *graph.Transition, e0 *vecmath.Matrix, p Params, r *randx.Rand) (*vecmath.Matrix, Stats, error) {
	return matrixOf(AsynchronousColumns(tr, NewSignal(e0), p, r))
}
