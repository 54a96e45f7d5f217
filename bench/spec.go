package main

import "time"

// The constants below are the frozen calibration of the benchmark (see
// README.md, "Calibration record"). Changing any of them changes what the
// numbers mean, so a change that claims a gain may not touch this file.

// Every run spends --seconds on its timed phases, in loadRounds rounds of an
// open-loop phase (openShare of the round) and a closed-loop phase (the
// rest). Warm-up is part of set-up.
//
// The shared reference box changes speed by 10-20% for seconds at a time.
// Rounds spread both kinds of phase over the whole run. Open-loop latency at
// a third of the load the overlay can take is mostly cross-process wake-ups,
// which the host only ever slows, so the percentiles are those of the
// quietest slice of the open-loop requests (kit.QuietSlice); a slowdown of
// the programs under test shows in every slice. Closed-loop throughput
// keeps both cores busy and moves both ways, so it is the median round's.
// With one phase of each kind and plain percentiles, ten runs spread 13%
// (throughput) to 33% (p90).
const (
	openShare  = 0.65
	loadRounds = 4
)

// A run sets the system up several times; setup_s and rediffuse_ms report
// the median and the last set-up is the one measured. Launching an overlay
// is cheap and its time depends on how the box schedules 12 new processes,
// so it gets more repetitions than the paper-scale environment.
const (
	overlaySetupReps = 7
	paperSetupReps   = 3
)

// maxFailFrac is the share of failed or refused operations above which a
// run is not correct.
const maxFailFrac = 0.005

// loadSpec is the read load of a request-serving workload.
type loadSpec struct {
	openRate float64 // Poisson arrivals per second in the open-loop phase
	inflight int     // outstanding requests in the closed-loop phase
	limitMS  float64 // a request slower than this misses the goodput limit
}

// Overlay workloads: real peerd processes on loopback.
const (
	overlayPeers       = 12
	overlayDocsPerPeer = 32
	overlayPairs       = 192 // mined query/gold pairs; every gold is placed
	overlayWords       = 2000
	overlayDim         = 64
	overlayTTL         = 6
	overlayK           = 3
	overlayTimeout     = time.Second
	// The topology is part of the workload like the peer count is: one
	// Watts-Strogatz(12, 4, 0.2) draw for every seed. Hop counts, and so
	// latency and messages per query, depend on it; the seed varies the
	// documents, their placement, the queries and the arrivals.
	overlayTopologySeed = 1
	queryGap            = 20 * time.Microsecond // see overlay.spaceOut
)

var overlayLoad = loadSpec{openRate: 400, inflight: 4, limitMS: 20}

// In-process workloads: the paper-scale environment (scale 1) or the
// quick one the drift test uses.
const (
	// How slow the slowest tenth of walks is depends on the hubs of the
	// generated graph: graphs from different seeds put the walk p90 anywhere
	// between 4.4 and 9.3 ms. One graph for every seed keeps the metrics
	// about the code.
	paperEnvSeed = 1

	paperDocs     = 1000 // documents placed, golds of the first paperGolds pairs included
	paperGolds    = 200
	alpha         = 0.5
	refSamples    = 32 // score vectors compared with the synchronous reference
	refTol        = 1e-10
	serveMaxWait  = 2 * time.Millisecond // peerd's scheduler defaults
	serveMaxBatch = 64
	serveCache    = 512
	serveWarmups  = 8

	bulkBatch = 256 // one tiled wide-batch ScoreBatch per cycle
	bulkWalks = 50  // RunQuery walks per cycle
	bulkTTL   = 50
)

var serveLoad = loadSpec{openRate: 25, inflight: 16, limitMS: 150}

// endToEnd lists the metrics a --trace 0 run prints, in print order. Every
// workload reports every one; README.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rediffuse_ms", "ms"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_qps", "1/s"},
	{"msgs_per_query", "count"},
}

// perLayer lists the metrics a --trace 1 run prints. A metric a workload
// has no source for reads 0 there.
var perLayer = []metricDef{
	{"driver.sent", "count"},
	{"driver.ok", "count"},
	{"driver.failed", "count"},
	{"driver.lateness_p90_ms", "ms"},
	{"driver.latency_tail_ms", "ms"},
	{"driver.latency_tail_pct", "%"},
	{"driver.goodput_frac", "ratio"},
	{"driver.hit_rate", "ratio"},
	{"proc.cpu_ms_per_query", "ms"},
	{"proc.rss_peak_mb", "MB"},
	{"trace.latency_p50_ms", "ms"},
	{"trace.overhead_frac", "ratio"},

	{"peernet.wire_msgs_per_query", "count"},
	{"peernet.gossip_msgs_to_ready", "count"},
	{"peernet.client_send_us_p50", "us"},
	{"peernet.client_bytes_per_msg", "count"},
	{"peernet.routed_hit_frac", "ratio"},
	{"peernet.routed_fallback_frac", "ratio"},
	{"peernet.early_stop_frac", "ratio"},
	{"peernet.filters_stale_max", "count"},
	{"peernet.self_ms_per_query", "ms"},
	{"peerd.reloads", "count"},
	{"peerd.cols_dropped_per_reload", "count"},

	{"serve.wait_ms_p50", "ms"},
	{"serve.wait_ms_p90", "ms"},
	{"serve.score_ms_p50", "ms"},
	{"serve.batch_mean", "count"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.dedup_frac", "ratio"},
	{"serve.queue_max", "count"},
	{"serve.rejected", "count"},
	{"serve.shed", "count"},
	{"serve.self_us_per_query", "us"},

	{"core.scorebatch_ms_per_batch", "ms"},
	{"core.self_ms_per_batch", "ms"},
	{"core.personalize_ms", "ms"},
	{"core.walk_us_per_query", "us"},
	{"core.walks_per_s", "1/s"},
	{"core.hops_per_query", "count"},
	{"core.hops_to_gold_mean", "count"},

	{"diffuse.signal_ms_per_col", "ms"},
	{"diffuse.sweeps_per_batch", "count"},
	{"diffuse.col_sweeps_mean", "count"},
	{"diffuse.edge_msgs_per_col", "count"},
	{"diffuse.ns_per_edge_msg", "ns"},
	{"diffuse.busy_frac", "ratio"},
	{"diffuse.matrix_ms", "ms"},
	{"diffuse.matrix_sweeps", "count"},
	{"diffuse.matrix_edge_msgs", "count"},
}

type metricDef struct{ name, unit string }

// workloads lists the four workloads in run order. The reasons are also in
// BENCHMARK.json; the drift test keeps the two lists equal.
var workloads = []workloadDef{
	{"overlay_walk", runOverlayWalk},
	{"overlay_churn", runOverlayChurn},
	{"serve_cold", runServeCold},
	{"bulk_diffuse", runBulkDiffuse},
}

type workloadDef struct {
	name string
	run  func(*runCtx) (*measurement, error)
}
