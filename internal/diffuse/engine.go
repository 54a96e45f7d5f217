package diffuse

import (
	"fmt"

	"diffusearch/internal/graph"
	"diffusearch/internal/randx"
	"diffusearch/internal/vecmath"
)

// Engine selects a diffusion driver. The engines reach the same PPR fixed
// point (within tolerance); they differ in scheduling and cost model.
type Engine int

const (
	// EngineAsynchronous is the deterministic sequential reference: seeded
	// randomized single-node updates, bit-for-bit reproducible.
	EngineAsynchronous Engine = iota + 1
	// EngineParallel is the residual-driven frontier engine on a fixed
	// worker pool — the fast path for large graphs and live serving.
	EngineParallel
	// EngineSync is the synchronous fixed-point iteration of eq. 7 (every
	// node per sweep, one global barrier). It is bit-for-bit compatible
	// with the historical ppr.PPRFilter path and keeps that path's tighter
	// default tolerance, so it is the scoring-grade reference engine.
	EngineSync
	// EngineParallelGS is the deterministic multi-color Gauss–Seidel
	// engine: one sweep updates the graph's color classes in fixed order
	// (no class contains an edge, so each class parallelizes freely), so
	// updates read the freshest cross-class values like the Asynchronous
	// engine while results stay identical across worker counts. Fewer
	// sweeps than EngineParallel's block-Jacobi rounds at equal tolerance,
	// at the cost of one barrier per color class per sweep.
	EngineParallelGS
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineAsynchronous:
		return "async"
	case EngineParallel:
		return "parallel"
	case EngineSync:
		return "sync"
	case EngineParallelGS:
		return "gs"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Valid reports whether e is a known engine.
func (e Engine) Valid() bool {
	return e == EngineAsynchronous || e == EngineParallel || e == EngineSync || e == EngineParallelGS
}

// ParseEngine maps a command-line name to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "async", "asynchronous":
		return EngineAsynchronous, nil
	case "parallel":
		return EngineParallel, nil
	case "sync", "synchronous":
		return EngineSync, nil
	case "gs", "parallel-gs", "gauss-seidel":
		return EngineParallelGS, nil
	}
	return 0, fmt.Errorf("diffuse: unknown engine %q (want async|parallel|sync|gs)", s)
}

// Run dispatches one matrix-form diffusion to the selected engine: a
// Signal run whose columns are the embedding dimensions (Synchronous
// delegates to the reference ppr.PPRFilter instead). seed feeds the
// Asynchronous engine's update schedule and is ignored by the
// schedule-independent engines.
func Run(e Engine, tr *graph.Transition, e0 *vecmath.Matrix, p Params, seed uint64) (*vecmath.Matrix, Stats, error) {
	switch e {
	case EngineAsynchronous:
		return Asynchronous(tr, e0, p, randx.Derive(seed, "diffuse", "async"))
	case EngineParallel:
		return Parallel(tr, e0, p)
	case EngineSync:
		return Synchronous(tr, e0, p)
	case EngineParallelGS:
		return ParallelGS(tr, e0, p)
	}
	return nil, Stats{}, fmt.Errorf("diffuse: unknown engine %d", int(e))
}

// RunSignal dispatches one column-blocked diffusion of a Signal to the
// selected engine. Unlike Run, the engines track residuals per column and
// retire columns from the working block as soon as they individually
// converge (see Signal). seed feeds the Asynchronous engine's update
// schedule exactly as in Run. Batch results are bit-identical to diffusing
// each column as its own single-column Signal on the sync, async, and GS
// engines. Run is this same dispatch over the embedding dimensions for
// the async, parallel, and GS engines; on EngineSync it delegates to
// ppr.PPRFilter, to which a single-column sync Signal is bit-identical
// (the sync order keeps the unfused Zero+ApplyRow+AXPY update for that
// reason; the others use the fused affine kernel, whose rounding
// differs).
func RunSignal(e Engine, tr *graph.Transition, sig *Signal, p Params, seed uint64) (*Signal, Stats, error) {
	switch e {
	case EngineAsynchronous:
		return AsynchronousColumns(tr, sig, p, randx.Derive(seed, "diffuse", "async"))
	case EngineParallel:
		return ParallelColumns(tr, sig, p)
	case EngineSync:
		return SynchronousColumns(tr, sig, p)
	case EngineParallelGS:
		return ParallelGSColumns(tr, sig, p)
	}
	return nil, Stats{}, fmt.Errorf("diffuse: unknown engine %d", int(e))
}
