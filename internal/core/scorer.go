package core

import (
	"diffusearch/internal/diffuse"
	"diffusearch/internal/graph"
	"diffusearch/internal/vecmath"
)

// Scorer is the diffusion backend behind a Network's Run and ScoreBatch:
// given the resolved engine and parameters of a DiffusionRequest, it
// smooths an embedding matrix (Diffuse) or a batched scalar relevance
// signal (DiffuseSignal). The only backend diffuses the network's single
// CSR; the interface is the seam a caller wraps to time or count every
// diffusion (the repo benchmark's tracer installs
// SetScorer(wrapper{ScoringBackend()})) without touching the request API.
type Scorer interface {
	// Diffuse smooths an n×d embedding matrix (Network.Run's engine path).
	Diffuse(e0 *vecmath.Matrix, engine diffuse.Engine, p diffuse.Params, seed uint64) (*vecmath.Matrix, diffuse.Stats, error)
	// DiffuseSignal diffuses an n×B column-blocked scalar signal with
	// per-column early termination (Network.ScoreBatch's engine path).
	DiffuseSignal(sig *diffuse.Signal, engine diffuse.Engine, p diffuse.Params, seed uint64) (*diffuse.Signal, diffuse.Stats, error)
}

// csrScorer is the default single-CSR backend: it dispatches to the engine
// implementations exactly as Run/ScoreBatch did before the Scorer seam
// existed, so installing no backend is bit-for-bit the historical
// behaviour.
type csrScorer struct {
	tr *graph.Transition
}

func (s *csrScorer) Diffuse(e0 *vecmath.Matrix, engine diffuse.Engine, p diffuse.Params, seed uint64) (*vecmath.Matrix, diffuse.Stats, error) {
	return diffuse.Run(engine, s.tr, e0, p, seed)
}

func (s *csrScorer) DiffuseSignal(sig *diffuse.Signal, engine diffuse.Engine, p diffuse.Params, seed uint64) (*diffuse.Signal, diffuse.Stats, error) {
	return diffuse.RunSignal(engine, s.tr, sig, p, seed)
}

// SetScorer installs a diffusion backend, typically a wrapper around
// ScoringBackend() that instruments each call. Passing nil restores the
// single-CSR default over the network's current transition operator. The
// backend must diffuse over the same topology the network was built on —
// scores and embeddings are indexed by this network's node ids.
func (n *Network) SetScorer(s Scorer) {
	if s == nil {
		s = &csrScorer{tr: n.tr}
	}
	n.scoring = s
}

// ScoringBackend returns the active diffusion backend.
func (n *Network) ScoringBackend() Scorer { return n.scoring }
