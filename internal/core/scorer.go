package core

import (
	"fmt"

	"diffusearch/internal/diffuse"
	"diffusearch/internal/graph"
	"diffusearch/internal/vecmath"
)

// Scorer is the diffusion backend behind a Network's Run and ScoreBatch:
// given the resolved engine and parameters of a DiffusionRequest, it
// smooths an embedding matrix (Diffuse) or a batched scalar relevance
// signal (DiffuseSignal) over some representation of the topology. The
// default backend diffuses the network's single CSR; internal/walkindex
// answers from precomputed PPR segments instead. Swapping the backend
// changes how the diffusion runs, never the request API — every entry
// point keeps going through DiffusionRequest.
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

// SetScorer installs a custom diffusion backend (e.g. the walk index of
// internal/walkindex). Passing nil restores the single-CSR default over the
// network's current transition operator. The backend must diffuse over the
// same topology the network was built on — scores and embeddings are
// indexed by this network's node ids.
func (n *Network) SetScorer(s Scorer) {
	if s == nil {
		s = &csrScorer{tr: n.tr}
	}
	n.scoring = s
}

// ScoringBackend returns the active diffusion backend.
func (n *Network) ScoringBackend() Scorer { return n.scoring }

// ScorerKind names a scoring backend for command-line selection
// (peerd -scorer): the single-CSR default or the precomputed walk index of
// internal/walkindex.
type ScorerKind int

const (
	ScorerCSR ScorerKind = iota + 1
	ScorerWalkIndex
)

// String returns the flag spelling ParseScorer accepts.
func (k ScorerKind) String() string {
	switch k {
	case ScorerCSR:
		return "csr"
	case ScorerWalkIndex:
		return "walkindex"
	}
	return fmt.Sprintf("ScorerKind(%d)", int(k))
}

// ParseScorer maps a command-line name to a backend kind. The empty
// string selects the CSR default, and an unknown name's error lists the
// accepted spellings (flag typos must not surface as bare errors).
func ParseScorer(s string) (ScorerKind, error) {
	switch s {
	case "", "csr":
		return ScorerCSR, nil
	case "walkindex":
		return ScorerWalkIndex, nil
	}
	return 0, fmt.Errorf("core: unknown scorer %q (want csr|walkindex)", s)
}
