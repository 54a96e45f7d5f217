package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diffusearch/internal/peernet"
)

// adminFixture builds an instrumented scorer plus an idle (never started)
// loopback peer — enough live state for every admin surface to render.
func adminFixture(t *testing.T) (*adminTelemetry, statusSource) {
	t.Helper()
	vocab := testVocab(t)
	tel := newAdminTelemetry()
	scorer, err := newQueryScorer(testSpecs(), vocab, scorerConfig{
		engine: "sync", alpha: 0.5, seed: 42, maxBatch: 8, cache: 32, tel: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(scorer.Close)
	tel.registerScorer(scorer)

	tr, err := peernet.ListenTCP(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	peer, err := peernet.NewPeer(peernet.PeerConfig{
		ID: 0, Vocab: vocab, Alpha: 0.5,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	tel.registerPeer(peer)

	// One scored query and one cache hit populate the trace counters and
	// the diffusion observer before anything scrapes.
	q := vocab.Vector(3)
	for i := 0; i < 2; i++ {
		if _, err := scorer.Score(q); err != nil {
			t.Fatal(err)
		}
	}
	return tel, statusSource{id: 0, start: time.Now(), peer: peer, scorer: scorer}
}

func adminGet(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminEndpoint drives every admin surface over real HTTP and checks
// the instrumented query shows up in each one.
func TestAdminEndpoint(t *testing.T) {
	tel, src := adminFixture(t)
	ts := httptest.NewServer(newAdminMux(tel.reg, src.snapshot))
	defer ts.Close()

	code, body := adminGet(t, ts.URL, "/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}

	code, body = adminGet(t, ts.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	for _, want := range []string{
		"diffusearch_diffusion_sweeps_total ",
		`diffusearch_serve_queries_total{path="scored",tenant="local"} 1`,
		`diffusearch_serve_queries_total{path="cache_hit",tenant="local"} 1`,
		`diffusearch_serve_score_seconds{tenant="local",quantile="0.99"}`,
		// The series the benchmark's overlay workloads read for their
		// serve.* and diffuse.* per-layer metrics.
		`diffusearch_serve_wait_seconds_sum{tenant="local"}`,
		`diffusearch_serve_score_seconds_sum{tenant="local"}`,
		`diffusearch_serve_score_seconds{tenant="local",quantile="0.5"}`,
		"diffusearch_peer_messages_sent_total 0",
		"diffusearch_serve_batches_total{tenant=\"local\"} 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	code, body = adminGet(t, ts.URL, "/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz status %d", code)
	}
	var sn statusSnapshot
	if err := json.Unmarshal([]byte(body), &sn); err != nil {
		t.Fatalf("statusz not JSON: %v\n%s", err, body)
	}
	local, ok := sn.Schedulers["local"]
	if !ok {
		t.Fatalf("statusz missing local scheduler: %s", body)
	}
	if local.Completed != 1 || local.CacheHits != 1 || local.Batches != 1 {
		t.Fatalf("local scheduler stats wrong: %+v", local)
	}
	if sn.Peer != 0 || sn.UptimeSecs < 0 {
		t.Fatalf("snapshot header wrong: %+v", sn)
	}

	code, _ = adminGet(t, ts.URL, "/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", code)
	}
}

// TestStatusSnapshotTextMatchesJSON pins the anti-drift contract: the
// shutdown banner and -statsevery line are rendered from the same struct
// /statusz serves, so every figure in the text appears in the snapshot.
func TestStatusSnapshotTextMatchesJSON(t *testing.T) {
	_, src := adminFixture(t)
	sn := src.snapshot()
	text := sn.text()
	if !strings.Contains(text, "peer 0 up ") {
		t.Fatalf("text header wrong: %q", text)
	}
	if !strings.Contains(text, "scheduler[local]: "+sn.Schedulers["local"].String()) {
		t.Fatalf("text scheduler line does not match snapshot stats:\n%s", text)
	}
}
