// Admin surface for a long-running peer: a telemetry registry fed by the
// diffusion observer and the scheduler's query-trace sink, one status
// snapshot struct behind every reporting surface (/statusz JSON, the
// -statsevery log line, and the shutdown banner render the same fields,
// so text and JSON cannot drift), and the -admin HTTP endpoint serving
// /metrics (Prometheus text), /statusz, /healthz, and /debug/pprof.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"diffusearch/internal/diffuse"
	"diffusearch/internal/peernet"
	"diffusearch/internal/serve"
	"diffusearch/internal/telemetry"
)

// adminTelemetry owns the peer's metrics registry and the hooks that feed
// it: one diffusion observer shared by every dispatched batch (the
// sweep-level convergence profile) and the scheduler's trace sink (query
// resolution paths and stage latencies). It exists only when -admin or
// -statsevery asked for it; every method tolerates a nil receiver and
// returns nil hooks, so the uninstrumented peer carries no registry at
// all — not even dormant counters.
type adminTelemetry struct {
	reg  *telemetry.Registry
	diff *telemetry.DiffusionMetrics
}

func newAdminTelemetry() *adminTelemetry {
	reg := telemetry.New()
	return &adminTelemetry{reg: reg, diff: telemetry.NewDiffusionMetrics(reg)}
}

// observer returns the sweep-level diffusion observer to thread into the
// scorer's DiffusionRequest, or nil without telemetry.
func (a *adminTelemetry) observer() diffuse.Observer {
	if a == nil {
		return nil
	}
	return a.diff
}

// traceWindow bounds the latency sample rings the summary quantiles are
// computed over, mirroring the serve package's own sliding-window
// philosophy: recent behaviour, not lifetime averages.
const traceWindow = 1024

// sink builds the scheduler's serve.Config.OnTrace hook: per-path
// resolution counters and wait/score latency quantile windows. Every
// series carries the constant tenant="local" label.
func (a *adminTelemetry) sink() func(serve.Trace) {
	if a == nil {
		return nil
	}
	paths := make(map[serve.Path]*telemetry.Counter, len(serve.Paths))
	for _, p := range serve.Paths {
		paths[p] = a.reg.Counter("diffusearch_serve_queries_total",
			"Resolved query submissions by resolution path.",
			"tenant", localTenant, "path", string(p))
	}
	wait := a.reg.Window("diffusearch_serve_wait_seconds",
		"Coalescing wait (arrival to dispatch) of resolved queries.",
		traceWindow, "tenant", localTenant)
	score := a.reg.Window("diffusearch_serve_score_seconds",
		"Backend scoring time of the batch each query rode.",
		traceWindow, "tenant", localTenant)
	return func(t serve.Trace) {
		if c := paths[t.Path]; c != nil {
			c.Inc()
		}
		if t.Wait > 0 {
			wait.Observe(t.Wait.Seconds())
		}
		if t.Score > 0 {
			score.Observe(t.Score.Seconds())
		}
	}
}

// registerPeer exposes the transport-level gossip counters. They live in
// the peer, not the registry, so a Producer reads them at scrape time.
func (a *adminTelemetry) registerPeer(peer *peernet.Peer) {
	if a == nil {
		return
	}
	a.reg.Producer(func(e *telemetry.Emitter) {
		updates, messages := peer.Stats()
		e.Counter("diffusearch_peer_diffusion_updates_total",
			"Gossip diffusion updates applied by this peer.", float64(updates))
		e.Counter("diffusearch_peer_messages_sent_total",
			"Transport messages sent by this peer.", float64(messages))
		fs := peer.FilterStats()
		if !fs.Enabled {
			return
		}
		e.Gauge("diffusearch_filter_fill_ratio",
			"Saturation of this peer's gossiped bloom document summary.", fs.Fill)
		e.Gauge("diffusearch_filter_neighbors_cached",
			"Neighbour bloom summaries currently cached.", float64(fs.Cached))
		e.Gauge("diffusearch_filter_neighbors_stale",
			"Cached neighbour summaries awaiting re-proof after a topology change.", float64(fs.Stale))
		e.Counter("diffusearch_filter_routed_hits_total",
			"Query forwards steered by a neighbour filter hit.", float64(fs.Hits))
		e.Counter("diffusearch_filter_routed_fallbacks_total",
			"Query forwards that fell back to plain greedy (every candidate missed).", float64(fs.Misses))
		e.Counter("diffusearch_filter_routed_early_stops_total",
			"Queries answered locally because no fresh filter could extend the walk.", float64(fs.Stops))
	})
}

// registerScorer exposes the scheduler's gauges and counters. They are
// owned by the scorer and sampled at scrape time, so the hot path pays
// nothing for them.
func (a *adminTelemetry) registerScorer(s *queryScorer) {
	if a == nil || s == nil {
		return
	}
	a.reg.Producer(func(e *telemetry.Emitter) {
		st := s.sched.Stats()
		e.Gauge("diffusearch_serve_queue_depth",
			"Submission-queue occupancy at scrape time.",
			float64(st.QueueDepth), "tenant", localTenant)
		e.Gauge("diffusearch_serve_cache_bytes",
			"Live LRU score-cache payload size.",
			float64(st.CacheBytes), "tenant", localTenant)
		e.Counter("diffusearch_serve_batches_total",
			"Diffusions dispatched by the scheduler.",
			float64(st.Batches), "tenant", localTenant)
		e.Counter("diffusearch_serve_messages_total",
			"Embedding messages spent by dispatched batches.",
			float64(st.MessagesTotal), "tenant", localTenant)
	})
}

// statusSnapshot is the one status structure behind every reporting
// surface. /statusz marshals it; text renders the shutdown banner and
// the -statsevery log line from the same fields.
type statusSnapshot struct {
	Peer       int                    `json:"peer"`
	UptimeSecs float64                `json:"uptime_secs"`
	Updates    int64                  `json:"diffusion_updates"`
	Messages   int64                  `json:"messages_sent"`
	Schedulers map[string]serve.Stats `json:"schedulers,omitempty"`
	Filter     *peernet.FilterStats   `json:"filter,omitempty"`
}

// statusSource binds the live objects a snapshot reads from. scorer is
// nil for a gossip-only peer (no -engine).
type statusSource struct {
	id     int
	start  time.Time
	peer   *peernet.Peer
	scorer *queryScorer
}

func (src statusSource) snapshot() statusSnapshot {
	updates, messages := src.peer.Stats()
	sn := statusSnapshot{
		Peer:       src.id,
		UptimeSecs: time.Since(src.start).Seconds(),
		Updates:    updates,
		Messages:   messages,
	}
	if fs := src.peer.FilterStats(); fs.Enabled {
		sn.Filter = &fs
	}
	if s := src.scorer; s != nil {
		sn.Schedulers = map[string]serve.Stats{localTenant: s.sched.Stats()}
	}
	return sn
}

// text renders the snapshot for logs: one header line plus one line per
// scheduler and the routing filter.
func (sn statusSnapshot) text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "peer %d up %s: %d diffusion updates, %d messages sent\n",
		sn.Peer, (time.Duration(sn.UptimeSecs * float64(time.Second))).Round(time.Second),
		sn.Updates, sn.Messages)
	for name, st := range sn.Schedulers { // one entry: localTenant
		fmt.Fprintf(&b, "scheduler[%s]: %v\n", name, st)
	}
	if f := sn.Filter; f != nil {
		fmt.Fprintf(&b, "filter: %d bits × %d hashes, %.0f%% full, %d neighbours cached (%d stale), routed %d hits / %d fallbacks / %d early stops\n",
			f.Bits, f.Hashes, 100*f.Fill, f.Cached, f.Stale, f.Hits, f.Misses, f.Stops)
	}
	return b.String()
}

// newAdminMux assembles the admin surface: Prometheus metrics, the JSON
// status snapshot, a liveness probe, and the stock pprof profiles. pprof
// is mounted explicitly rather than via the package's DefaultServeMux
// side effect, so the main service ports never grow debug handlers.
func newAdminMux(reg *telemetry.Registry, snap func() statusSnapshot) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// startAdmin binds addr and serves the admin mux until the returned
// server is closed. The resolved address is returned so ":0" works in
// tests and logs print something dialable.
func startAdmin(addr string, mux *http.ServeMux) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("admin endpoint: %w", err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// startStatsLoop prints the status snapshot every interval until the
// returned stop function is called — the log-line twin of /statusz.
func startStatsLoop(every time.Duration, snap func() statusSnapshot) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Print(snap().text())
			}
		}
	}()
	return func() { close(done) }
}
