package core

import (
	"errors"
	"testing"

	"diffusearch/internal/diffuse"
	"diffusearch/internal/vecmath"
)

func TestDiffuseEngineSelection(t *testing.T) {
	// Both engines, driven through the engine-selecting entry point, must
	// land on the synchronous fixed point and record alpha.
	f := newFixture(t)
	f.place(t, 40, 4)
	if err := f.net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.net.Run(DiffusionRequest{Engine: diffuse.EngineSync, Alpha: 0.5, Tol: 1e-10}); err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, f.net.Graph().NumNodes())
	for u := range want {
		e, err := f.net.NodeEmbedding(u)
		if err != nil {
			t.Fatal(err)
		}
		want[u] = vecmath.Clone(e)
	}
	for _, eng := range []diffuse.Engine{diffuse.EngineAsynchronous, diffuse.EngineParallel} {
		st, err := f.net.Run(DiffusionRequest{Engine: eng, Alpha: 0.5, Tol: 1e-8, Seed: 9})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if !st.Converged {
			t.Fatalf("%v: not converged", eng)
		}
		for u := range want {
			e, err := f.net.NodeEmbedding(u)
			if err != nil {
				t.Fatal(err)
			}
			if vecmath.MaxAbsDiff(e, want[u]) > 1e-4 {
				t.Fatalf("%v: node %d differs from sync fixed point", eng, u)
			}
		}
	}
}

func TestDiffuseParallelShorthand(t *testing.T) {
	f := newFixture(t)
	f.place(t, 30, 5)
	if err := f.net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	st, err := f.net.Run(DiffusionRequest{Engine: diffuse.EngineParallel, Alpha: 0.5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("parallel shorthand did not converge")
	}
}

func TestDiffuseRequiresPersonalization(t *testing.T) {
	f := newFixture(t)
	if _, err := f.net.Run(DiffusionRequest{Engine: diffuse.EngineParallel, Alpha: 0.5, Seed: 1}); !errors.Is(err, ErrNoPersonalization) {
		t.Fatalf("want ErrNoPersonalization, got %v", err)
	}
	if _, err := f.net.Run(DiffusionRequest{Engine: diffuse.EngineParallel, Alpha: 0.5}); !errors.Is(err, ErrNoPersonalization) {
		t.Fatalf("want ErrNoPersonalization, got %v", err)
	}
}

func TestPersonalizationMatrix(t *testing.T) {
	f := newFixture(t)
	if f.net.PersonalizationMatrix() != nil {
		t.Fatal("matrix must be nil before ComputePersonalization")
	}
	f.place(t, 20, 6)
	if err := f.net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	m := f.net.PersonalizationMatrix()
	if m == nil || m.Rows() != f.net.Graph().NumNodes() {
		t.Fatal("matrix must have one row per node")
	}
	row, err := f.net.Personalization(0)
	if err != nil {
		t.Fatal(err)
	}
	if vecmath.MaxAbsDiff(m.Row(0), row) != 0 {
		t.Fatal("matrix row must equal Personalization(0)")
	}
}
