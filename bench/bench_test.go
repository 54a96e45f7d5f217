package main

import (
	"context"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"testing"

	"diffusearch/bench/kit"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestBenchmarkFileMatchesCode is the drift test: the workloads and metric
// names in BENCHMARK.json are exactly the ones the code registers, and a
// quick in-process run of each in-process workload (small environment, one
// set-up, one-second phases, no peerd) emits exactly those names. The
// overlay workloads fill the same maps through the same functions, so
// their names cannot differ; running them needs child processes, which a
// tier-1 test must not spawn.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	spec, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var fileWorkloads, codeWorkloads, fileE2E, fileLayer []string
	for _, w := range spec.Workloads {
		fileWorkloads = append(fileWorkloads, w.Name)
	}
	for _, w := range workloads {
		codeWorkloads = append(codeWorkloads, w.name)
	}
	for _, e := range spec.EndToEnd {
		fileE2E = append(fileE2E, e.Name)
	}
	for _, e := range spec.PerLayer {
		fileLayer = append(fileLayer, e.Name)
	}
	sort.Strings(fileE2E)
	sort.Strings(fileLayer)
	if !slices.Equal(fileWorkloads, codeWorkloads) {
		t.Errorf("workloads: BENCHMARK.json has %v, the code runs %v", fileWorkloads, codeWorkloads)
	}
	if !slices.Equal(fileE2E, names(endToEnd)) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the code prints %v", fileE2E, names(endToEnd))
	}
	if !slices.Equal(fileLayer, names(perLayer)) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the code prints %v", fileLayer, names(perLayer))
	}
	for _, n := range slices.Concat(fileWorkloads, fileE2E, fileLayer) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
	}
	units := make(map[string]string)
	for _, d := range slices.Concat(endToEnd, perLayer) {
		units[d.name] = d.unit
	}
	for _, e := range spec.EndToEnd {
		if units[e.Name] != e.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the code", e.Name, e.Unit, units[e.Name])
		}
	}
	for _, e := range spec.PerLayer {
		if units[e.Name] != e.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the code", e.Name, e.Unit, units[e.Name])
		}
	}

	for _, w := range workloads {
		if w.name != "serve_cold" && w.name != "bulk_diffuse" {
			continue
		}
		for _, traced := range []bool{false, true} {
			c := &runCtx{ctx: context.Background(), name: w.name, seed: 7, seconds: 1, quick: true}
			if traced {
				c.rec = kit.NewRecorder()
			}
			m, err := w.run(c)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !m.correct() {
				t.Errorf("%s traced=%t: not correct: %d of %d failed, problems %v, notes %v",
					w.name, traced, m.failed, m.attempted, m.problems, m.notes)
			}
			if got := keys(m.e2e); !slices.Equal(got, names(endToEnd)) {
				t.Errorf("%s traced=%t emitted end-to-end metrics %v, want %v", w.name, traced, got, names(endToEnd))
			}
			for _, k := range keys(m.e2e) {
				if m.e2e[k] <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, k, m.e2e[k])
				}
			}
			if !traced {
				continue
			}
			// runAndReport adds the two trace.* metrics when it prints.
			m.layer["trace.latency_p50_ms"], m.layer["trace.overhead_frac"] = 0, 0
			for _, k := range keys(m.layer) {
				if !slices.Contains(names(perLayer), k) {
					t.Errorf("%s emitted per-layer metric %s, which is not registered", w.name, k)
				}
			}
			if m.layer["diffuse.signal_ms_per_col"] <= 0 || m.layer["core.scorebatch_ms_per_batch"] <= 0 {
				t.Errorf("%s: the span wrappers recorded nothing: %v", w.name, m.layer)
			}
		}
	}
}

// The overlay's generated inputs (documents, placement, central answers,
// chord, request stream) are a function of the seed alone.
func TestOverlayInputsAreSeeded(t *testing.T) {
	gen := func(seed uint64) *overlay {
		o, err := newOverlay(&runCtx{ctx: context.Background(), name: "overlay_churn", seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	a, b, c := gen(7), gen(7), gen(8)
	same := func(x, y *overlay) bool {
		return reflect.DeepEqual(x.docs, y.docs) && reflect.DeepEqual(x.gold, y.gold) &&
			reflect.DeepEqual(x.stream, y.stream) && reflect.DeepEqual(x.pairs, y.pairs) && x.chord == y.chord
	}
	if !same(a, b) {
		t.Error("equal seeds generated different overlay inputs")
	}
	if same(a, c) {
		t.Error("different seeds generated the same overlay inputs")
	}
	if !reflect.DeepEqual(a.nbrs, c.nbrs) {
		t.Error("the topology must not depend on the seed")
	}
	placed := 0
	for _, d := range a.docs {
		placed += len(d)
	}
	if placed != overlayPeers*overlayDocsPerPeer || len(a.placed) != placed {
		t.Errorf("%d documents placed, %d distinct, want %d unique", placed, len(a.placed), overlayPeers*overlayDocsPerPeer)
	}
	for i, p := range a.pairs {
		if !a.placed[p.Gold] {
			t.Fatalf("gold of pair %d is not placed", i)
		}
	}
}
