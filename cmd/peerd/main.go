// Command peerd runs one real P2P search peer over TCP — the deployable
// counterpart of the simulation. Peers are configured with a static
// topology file mapping node ids to addresses and neighbour lists; every
// peer regenerates the same corpus from the shared seed, stores the
// documents assigned to its id, gossips PPR embeddings, and answers
// queries.
//
// Topology file format (one peer per line):
//
//	<id> <host:port> <neighbour,neighbour,...> [doc,doc,...]
//
// Example (three peers on one machine):
//
//	0 127.0.0.1:7000 1 12,99
//	1 127.0.0.1:7001 0,2
//	2 127.0.0.1:7002 1 7
//
// Run each in its own terminal:
//
//	peerd -topology net.txt -id 0
//	peerd -topology net.txt -id 1
//	peerd -topology net.txt -id 2 -query w12 -wait 3s
//
// The -query flag issues a search for the embedding of the named word after
// -wait (allowing diffusion to settle) and prints the results; -batch
// issues several comma-separated words, scored through one batched
// diffusion.
//
// With -engine, the peer serves queries through the unified
// DiffusionRequest API instead of its own gossip-cache scoring: every peer
// can reconstruct the deployment's Network from the shared topology file
// and corpus seed, so forwarding decisions come from a
// core.Network.ScoreBatch on the selected engine (async|parallel|sync|gs),
// and -batch amortizes all of its queries into a single multi-column
// ScoreBatch call before the walks start. Without -engine the peer keeps
// gossip-cache scoring for everything, -batch included.
//
// Request-API scoring runs behind an admission-controlled serve.Scheduler:
// concurrently arriving queries coalesce into one multi-column diffusion
// under the -maxwait latency budget (batch width capped at -maxbatch, B
// grows with load), and an LRU cache of -cache score columns lets repeated
// queries skip diffusion entirely. The scheduler's batch-width histogram,
// wait quantiles, queue depth, and cache hit rate are printed at shutdown.
//
// Scheduling is class- and deadline-aware: -class tags this peer's
// submissions interactive (the default — urgent, jumps the coalesce
// window) or bulk (prewarm/analytics traffic that waits to widen batches),
// and -deadline attaches a dispatch deadline to every submission — a query
// the scheduler cannot dispatch in time is shed, never scored.
//
// A long-running peer follows topology changes without restarting: SIGHUP
// reloads the -topology file, patches the scorer's mirror Network (joined
// and departed peers), invalidates the serve cache — targeted when the
// patch is small (only cached score columns whose diffusion touched the
// patched neighbourhood are dropped), whole-cache otherwise — refreshes
// the transport directory, and rewires this peer's own neighbour set.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/embed"
	"diffusearch/internal/graph"
	"diffusearch/internal/peernet"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/serve"
)

func main() {
	var (
		topoPath = flag.String("topology", "", "topology file (required)")
		id       = flag.Int("id", -1, "this peer's node id (required)")
		alpha    = flag.Float64("alpha", 0.5, "PPR teleport probability")
		seed     = flag.Uint64("seed", 42, "shared corpus seed (must match across peers)")
		words    = flag.Int("words", 2000, "shared vocabulary size (must match across peers)")
		dim      = flag.Int("dim", 64, "shared embedding dimension (must match across peers)")
		query    = flag.String("query", "", "issue a query for this word (e.g. w12) and exit")
		batch    = flag.String("batch", "", "issue a batch of comma-separated words (e.g. w12,w7) and exit; with -engine, the batch is scored in one diffusion first")
		engine   = flag.String("engine", "", "serve queries through the request API on this engine (async|parallel|sync|gs); empty keeps gossip-cache scoring")
		workers  = flag.Int("workers", 0, "parallel engine pool size (0 = GOMAXPROCS)")
		maxWait  = flag.Duration("maxwait", 2*time.Millisecond, "scheduler coalescing budget: how long a query may wait for batch co-riders (0 = zero-wait)")
		maxBatch = flag.Int("maxbatch", 64, "scheduler batch-width cap for coalesced diffusions")
		cache    = flag.Int("cache", 512, "scheduler LRU score-cache entries (0 disables)")
		class    = flag.String("class", "interactive", "scheduling class for this peer's request-API submissions: interactive (jump the coalesce window) or bulk (wait up to 4×maxwait to widen batches)")
		deadline = flag.Duration("deadline", 0, "per-query dispatch deadline for request-API submissions; queries not dispatched in time are shed, never scored (0 = none)")
		admin    = flag.String("admin", "", "serve the admin endpoint (/metrics, /statusz, /healthz, /debug/pprof) on this address, e.g. :9090 (empty disables)")
		statsEv  = flag.Duration("statsevery", 0, "print the status snapshot at this interval (0 disables)")
		ttl      = flag.Int("ttl", 20, "query hop budget")
		k        = flag.Int("k", 3, "tracked results")
		fBits    = flag.Int("filterbits", 1024, "bloom document-summary size in bits gossiped to neighbours for routed query fan-out (0 disables filter routing)")
		fHashes  = flag.Int("filterhashes", 4, "bloom probe count per document key")
		qKeys    = flag.Int("querykeys", 8, "doc-term keys mined per forwarded query for filter routing")
		wait     = flag.Duration("wait", 2*time.Second, "diffusion settling time before -query/-batch")
	)
	flag.Parse()
	cfg := runConfig{
		topoPath: *topoPath, id: *id, alpha: *alpha, seed: *seed,
		words: *words, dim: *dim, query: *query, batch: *batch,
		engine: *engine, workers: *workers, ttl: *ttl, k: *k, wait: *wait,
		maxWait: *maxWait, maxBatch: *maxBatch, cache: *cache,
		class: *class, deadline: *deadline,
		admin: *admin, statsEvery: *statsEv,
		filterBits: *fBits, filterHashes: *fHashes, queryKeys: *qKeys,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "peerd:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	topoPath   string
	id         int
	alpha      float64
	seed       uint64
	words      int
	dim        int
	query      string
	batch      string
	engine     string
	workers    int
	ttl        int
	k          int
	wait       time.Duration
	maxWait    time.Duration
	maxBatch   int
	cache      int
	class      string
	deadline   time.Duration
	admin      string
	statsEvery time.Duration

	filterBits   int
	filterHashes int
	queryKeys    int
}

type peerSpec struct {
	addr      string
	neighbors []graph.NodeID
	docs      []retrieval.DocID
}

// queryScorer serves per-node relevance scores through the admission-
// controlled serve layer over a mirror of the deployment: peerd peers
// share the topology file and the seeded corpus, so any peer can
// reconstruct the same Network the simulation uses and score queries with
// ScoreBatch instead of its own diffusion call. Concurrent queries
// coalesce into one multi-column diffusion (the Scheduler replaces the
// per-query Score path and the FIFO memo peerd carried before PR 3), and
// Prewarm fills the scheduler's LRU cache for a whole batch with one
// diffusion.
//
// The local mirror Network is swappable: Patch rebuilds it from reloaded
// topology specs (peers joining or leaving) and invalidates the score
// cache — targeted when the patch is small (only cached columns whose
// scores touch the patched neighbourhood are dropped), whole-cache
// otherwise.
type queryScorer struct {
	req   core.DiffusionRequest
	vocab *embed.Vocabulary
	sched *serve.Scheduler
	cfg   scorerConfig

	mu    sync.RWMutex
	net   *core.Network    // local topology mirror; swapped whole on Patch
	specs map[int]peerSpec // specs the mirror was built from (patch diffs)
}

// localTenant labels this peer's scheduler in metrics (tenant="local")
// and in the /statusz schedulers map. It is a constant: one process
// serves one graph.
const localTenant = "local"

// scorerConfig carries the scheduler and request knobs into newQueryScorer.
type scorerConfig struct {
	engine   string
	alpha    float64
	workers  int
	seed     uint64
	maxWait  time.Duration
	maxBatch int
	cache    int
	// class and deadline are this connection's submission defaults: every
	// Score call is tagged with the class, and given a dispatch deadline of
	// now+deadline when non-zero (see serve.SubmitOpts).
	class    serve.Class
	deadline time.Duration
	// tel, when non-nil, instruments the scorer: its diffusion observer
	// rides every dispatched batch and the scheduler gets a trace sink.
	// Nil (the default, and every test's) keeps the hot path identical to
	// an unobserved build.
	tel *adminTelemetry
}

// newQueryScorer mirrors the topology and document placement into a
// Network, resolves the engine flag into the DiffusionRequest every
// dispatched batch uses, and starts the coalescing scheduler over it.
func newQueryScorer(specs map[int]peerSpec, vocab *embed.Vocabulary, cfg scorerConfig) (*queryScorer, error) {
	eng, err := diffuse.ParseEngine(cfg.engine)
	if err != nil {
		return nil, err
	}
	s := &queryScorer{
		req: core.DiffusionRequest{
			Engine: eng, Alpha: cfg.alpha, Workers: cfg.workers,
			Seed: cfg.seed, Observer: cfg.tel.observer(),
		},
		vocab: vocab,
		cfg:   cfg,
		specs: specs,
	}
	if s.net, err = buildMirror(specs, vocab); err != nil {
		return nil, err
	}
	if s.sched, err = serve.New(s, serve.Config{
		Request: s.req, MaxWait: cfg.maxWait, MaxBatch: cfg.maxBatch, Cache: cfg.cache,
		OnTrace: cfg.tel.sink(),
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// buildMirror reconstructs the deployment Network from topology specs: the
// overlay graph, the shared-seed document placement, and the summarized
// personalization vectors.
func buildMirror(specs map[int]peerSpec, vocab *embed.Vocabulary) (*core.Network, error) {
	n := 0
	for id := range specs {
		if id >= n {
			n = id + 1
		}
	}
	b := graph.NewBuilder(n)
	var docs []retrieval.DocID
	var hosts []graph.NodeID
	for id, spec := range specs {
		for _, v := range spec.neighbors {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("peer %d lists unknown neighbour %d", id, v)
			}
			b.AddEdge(id, v)
		}
		for _, d := range spec.docs {
			docs = append(docs, d)
			hosts = append(hosts, id)
		}
	}
	net := core.NewNetwork(b.Build(), vocab)
	if err := net.PlaceDocuments(docs, hosts); err != nil {
		return nil, err
	}
	if err := net.ComputePersonalization(); err != nil {
		return nil, err
	}
	return net, nil
}

// ScoreBatch implements serve.Backend over the current mirror, so batches
// dispatched after a Patch score against the fresh topology.
func (s *queryScorer) ScoreBatch(queries [][]float64, req core.DiffusionRequest) ([][]float64, diffuse.Stats, error) {
	s.mu.RLock()
	net := s.net
	s.mu.RUnlock()
	return net.ScoreBatch(queries, req)
}

// scoreTimeout bounds how long a forwarded query may wait in the
// scheduler; queries are additionally timeout-guarded at their origin.
const scoreTimeout = 30 * time.Second

// Score returns the per-node relevance scores for one query embedding
// through the coalescing scheduler (cache hit, coalesced
// batch column, or fresh diffusion), tagged with this peer's configured
// scheduling class and deadline.
func (s *queryScorer) Score(query []float64) ([]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), scoreTimeout)
	defer cancel()
	opts := serve.SubmitOpts{Class: s.cfg.class}
	if s.cfg.deadline != 0 {
		// 0 means no deadline; anything else (including a negative budget,
		// which sheds on arrival) becomes an absolute dispatch deadline.
		opts.Deadline = time.Now().Add(s.cfg.deadline)
	}
	return s.sched.SubmitWith(ctx, query, opts)
}

// Prewarm scores a whole query batch in one multi-column diffusion and
// fills the scheduler's cache, so the subsequent live walks pay no further
// diffusion cost.
func (s *queryScorer) Prewarm(queries [][]float64) (diffuse.Stats, error) {
	return s.sched.Warm(queries)
}

// smallPatchFrac bounds the targeted-invalidation path: a patch whose
// closed neighbourhood covers more than this fraction of the overlay
// invalidates the whole cache (scanning the cache per column buys nothing
// once most columns plausibly touch the patch).
const smallPatchFrac = 0.25

// Patch swaps the local topology mirror for one rebuilt from reloaded
// specs and invalidates the serve cache. Small pure-rewire patches
// invalidate targeted: only cached columns whose scores touch the patch's
// closed neighbourhood (changed peers plus their old and new neighbours)
// are dropped, so a one-peer rewire keeps the rest of the cache serving.
// Patches that change relevance sources — document placements, or peers
// joining/leaving with content — always drop the whole cache: targeted
// invalidation inspects where cached mass already is and cannot see mass
// a new document creates (see serve.Scheduler.InvalidateNodes). The
// returned summary is for the reload log line.
func (s *queryScorer) Patch(specs map[int]peerSpec) (string, error) {
	s.mu.RLock()
	old := s.specs
	s.mu.RUnlock()
	changed, docsChanged := changedClosure(old, specs)

	net, err := buildMirror(specs, s.vocab)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.net = net
	s.specs = specs
	s.mu.Unlock()
	total := len(specs)
	if len(changed) == 0 {
		return "cache untouched (no peer changed)", nil
	}
	if docsChanged {
		s.sched.InvalidateCache()
		return "whole cache invalidated (document placement changed)", nil
	}
	if float64(len(changed)) <= smallPatchFrac*float64(total) {
		dropped := s.sched.InvalidateNodes(changed)
		return fmt.Sprintf("targeted invalidation: %d nodes in patch neighbourhood, %d cached columns dropped",
			len(changed), dropped), nil
	}
	s.sched.InvalidateCache()
	return fmt.Sprintf("whole cache invalidated (%d/%d nodes in patch neighbourhood)", len(changed), total), nil
}

// changedClosure diffs two topology snapshots and returns the patch's
// closed neighbourhood — every peer whose membership, neighbour set, or
// document placement changed, plus that peer's neighbours in both the old
// and the new topology (a rewiring redistributes diffusion mass across
// exactly those nodes) — along with whether any relevance source moved
// (document placements differ, or a peer joined/left holding documents),
// which rules targeted invalidation out.
func changedClosure(old, new map[int]peerSpec) (ids []int, docsChanged bool) {
	changed := make(map[int]bool)
	diff := func(id int) {
		o, inOld := old[id]
		n, inNew := new[id]
		docsEq := equalInts(o.docs, n.docs) // a missing side reads as no docs
		if !docsEq {
			docsChanged = true
		}
		if !inOld || !inNew || !docsEq || !equalInts(o.neighbors, n.neighbors) {
			changed[id] = true
		}
	}
	for id := range old {
		diff(id)
	}
	for id := range new {
		if _, seen := old[id]; !seen {
			diff(id)
		}
	}
	closure := make(map[int]bool, len(changed))
	for id := range changed {
		closure[id] = true
		for _, v := range old[id].neighbors {
			closure[v] = true
		}
		for _, v := range new[id].neighbors {
			closure[v] = true
		}
	}
	ids = make([]int, 0, len(closure))
	for id := range closure {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, docsChanged
}

// equalInts reports set equality of two id lists (topology files may
// reorder them without meaning a change).
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	slices.Sort(as)
	slices.Sort(bs)
	return slices.Equal(as, bs)
}

// Close drains and stops the scheduler.
func (s *queryScorer) Close() { s.sched.Close() }

func run(cfg runConfig) error {
	if cfg.topoPath == "" || cfg.id < 0 {
		return fmt.Errorf("-topology and -id are required (see -h)")
	}
	specs, err := loadTopology(cfg.topoPath)
	if err != nil {
		return err
	}
	spec, ok := specs[cfg.id]
	if !ok {
		return fmt.Errorf("id %d not present in %s", cfg.id, cfg.topoPath)
	}

	vocab, err := embed.Synthetic(embed.SyntheticParams{
		Words: cfg.words, Dim: cfg.dim, Clusters: max(cfg.words/12, 1), Spread: 0.55,
		CommonComponent: 0.6, Seed: cfg.seed,
	})
	if err != nil {
		return err
	}

	// Telemetry exists only when a reporting surface asked for it; a nil
	// adminTelemetry threads nil hooks everywhere, so the unobserved peer
	// runs exactly the pre-instrumentation hot path.
	var tel *adminTelemetry
	if cfg.admin != "" || cfg.statsEvery > 0 {
		tel = newAdminTelemetry()
	}
	start := time.Now()

	// -engine alone decides the serving mode: -batch without it issues the
	// queries over plain gossip scoring, same as the rest of a deployment
	// that never opted into the request API.
	var scorer *queryScorer
	if cfg.engine != "" {
		cl, err := serve.ParseClass(cfg.class)
		if err != nil {
			return err
		}
		if scorer, err = newQueryScorer(specs, vocab, scorerConfig{
			engine: cfg.engine, alpha: cfg.alpha, workers: cfg.workers, seed: cfg.seed,
			maxWait: cfg.maxWait, maxBatch: cfg.maxBatch, cache: cfg.cache,
			class: cl, deadline: cfg.deadline,
			tel: tel,
		}); err != nil {
			return err
		}
		defer scorer.Close()
		tel.registerScorer(scorer)
	}

	tr, err := peernet.ListenTCP(cfg.id, spec.addr)
	if err != nil {
		return err
	}
	defer tr.Close()
	dir := make(map[graph.NodeID]string, len(specs))
	for pid, s := range specs {
		dir[pid] = s.addr
	}
	tr.SetDirectory(dir)

	pcfg := peernet.PeerConfig{
		ID:        cfg.id,
		Neighbors: spec.neighbors,
		Vocab:     vocab,
		Docs:      spec.docs,
		Alpha:     cfg.alpha,
		Filter: peernet.FilterConfig{
			Bits:      cfg.filterBits,
			Hashes:    cfg.filterHashes,
			QueryKeys: cfg.queryKeys,
		},
	}
	if scorer != nil {
		pcfg.ScoreQuery = scorer.Score
	}
	peer, err := peernet.NewPeer(pcfg, tr)
	if err != nil {
		return err
	}
	peer.Start()
	defer peer.Stop()
	tel.registerPeer(peer)
	src := statusSource{id: cfg.id, start: start, peer: peer, scorer: scorer}
	if cfg.admin != "" {
		srv, addr, err := startAdmin(cfg.admin, newAdminMux(tel.reg, src.snapshot))
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("admin endpoint on http://%s (/metrics /statusz /healthz /debug/pprof)\n", addr)
	}
	if cfg.statsEvery > 0 {
		defer startStatsLoop(cfg.statsEvery, src.snapshot)()
	}
	mode := "gossip-cache scoring"
	if scorer != nil {
		mode = fmt.Sprintf("request-API scoring (engine %v)", scorer.req.Engine)
	}
	fmt.Printf("peer %d listening on %s (%d neighbours, %d local docs, %s)\n",
		cfg.id, tr.Addr(), len(spec.neighbors), len(spec.docs), mode)

	issue := func(word retrieval.DocID) error {
		results, err := peer.Query(vocab.Vector(word), cfg.ttl, cfg.k, 30*time.Second)
		if err != nil {
			return err
		}
		fmt.Printf("query %s returned %d result(s):\n", vocab.Word(word), len(results))
		for i, r := range results {
			fmt.Printf("  %d. %s (score %.4f)\n", i+1, vocab.Word(r.Doc), r.Score)
		}
		return nil
	}

	switch {
	case cfg.batch != "":
		ws, err := parseWordList(cfg.batch, vocab.Len())
		if err != nil {
			return err
		}
		time.Sleep(cfg.wait)
		if scorer != nil {
			queries := make([][]float64, len(ws))
			for i, w := range ws {
				queries[i] = vocab.Vector(w)
			}
			st, err := scorer.Prewarm(queries)
			if err != nil {
				return err
			}
			fmt.Printf("batch of %d queries scored in one diffusion: %d sweeps, %d messages (%.0f per query)\n",
				len(ws), st.Sweeps, st.Messages, float64(st.Messages)/float64(len(ws)))
		}
		for _, w := range ws {
			if err := issue(w); err != nil {
				return err
			}
		}
		return nil
	case cfg.query != "":
		w, err := parseWord(cfg.query, vocab.Len())
		if err != nil {
			return err
		}
		time.Sleep(cfg.wait)
		return issue(w)
	}

	// Serve until interrupted; SIGHUP reloads the topology file so a
	// long-running peer follows joins/leaves without restarting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for got := range sig {
		if got != syscall.SIGHUP {
			break
		}
		if err := reloadTopology(cfg, peer, tr, scorer); err != nil {
			fmt.Printf("topology reload failed (keeping previous topology): %v\n", err)
		}
	}
	// The shutdown report is the status snapshot's text rendering — the
	// same struct /statusz serves, so the banner and the JSON can't drift.
	fmt.Printf("\npeer %d shutting down\n%s", cfg.id, src.snapshot().text())
	return nil
}

// reloadTopology re-reads the topology file and applies the delta to the
// running peer: the transport directory learns new addresses, the peer's
// own neighbour set is rewired, and the request-API scorer (when enabled)
// rebuilds its mirror Network and drops its now-stale score cache.
func reloadTopology(cfg runConfig, peer *peernet.Peer, tr *peernet.TCPTransport, scorer *queryScorer) error {
	specs, err := loadTopology(cfg.topoPath)
	if err != nil {
		return err
	}
	spec, ok := specs[cfg.id]
	if !ok {
		return fmt.Errorf("id %d no longer present in %s", cfg.id, cfg.topoPath)
	}
	// Patch the scorer first: it is the step that validates the specs
	// (unknown neighbours, bad placement), so a broken file fails here
	// before the transport directory or our neighbour set have moved — the
	// caller's "keeping previous topology" message stays true.
	cacheNote := ""
	if scorer != nil {
		note, err := scorer.Patch(specs)
		if err != nil {
			return err
		}
		cacheNote = ", scorer mirror patched + " + note
	}
	dir := make(map[graph.NodeID]string, len(specs))
	for pid, s := range specs {
		dir[pid] = s.addr
	}
	tr.SetDirectory(dir)
	peer.UpdateNeighbors(spec.neighbors)
	// A patched placement must also patch the routing filter: the local
	// bloom summary is built from the holdings, so a doc delta rebuilds it
	// and the next gossip round re-proves it to the (now possibly rewired)
	// neighbour set. UpdateNeighbors already dropped departed peers'
	// cached filters and marked the survivors' stale.
	if !sameDocSet(peer.Docs(), spec.docs) {
		peer.SetDocuments(spec.docs)
		cacheNote += ", placement patched"
	}
	fmt.Printf("topology reloaded: %d peers, %d neighbours of peer %d%s\n",
		len(specs), len(spec.neighbors), cfg.id, cacheNote)
	return nil
}

// sameDocSet reports whether two holdings lists contain the same
// documents, order-insensitively (topology files list docs in any order).
func sameDocSet(a, b []retrieval.DocID) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[retrieval.DocID]int, len(a))
	for _, d := range a {
		set[d]++
	}
	for _, d := range b {
		if set[d] == 0 {
			return false
		}
		set[d]--
	}
	return true
}

// parseWordList parses a comma-separated -batch argument.
func parseWordList(s string, vocabLen int) ([]retrieval.DocID, error) {
	parts := strings.Split(s, ",")
	out := make([]retrieval.DocID, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		w, err := parseWord(p, vocabLen)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -batch list %q", s)
	}
	return out, nil
}

func parseWord(token string, vocabLen int) (retrieval.DocID, error) {
	w, err := strconv.Atoi(strings.TrimPrefix(token, "w"))
	if err != nil || w < 0 || w >= vocabLen {
		return 0, fmt.Errorf("bad word token %q (want w<0..%d>)", token, vocabLen-1)
	}
	return w, nil
}

func loadTopology(path string) (map[int]peerSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open topology: %w", err)
	}
	defer f.Close()
	specs := make(map[int]peerSpec)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s:%d: want `<id> <addr> <neighbours> [docs]`", path, line)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil || id < 0 {
			return nil, fmt.Errorf("%s:%d: bad id %q", path, line, fields[0])
		}
		spec := peerSpec{addr: fields[1]}
		if spec.neighbors, err = parseIntList(fields[2]); err != nil {
			return nil, fmt.Errorf("%s:%d: neighbours: %w", path, line, err)
		}
		if len(fields) > 3 {
			if spec.docs, err = parseIntList(fields[3]); err != nil {
				return nil, fmt.Errorf("%s:%d: docs: %w", path, line, err)
			}
		}
		if _, dup := specs[id]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate id %d", path, line, id)
		}
		specs[id] = spec
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read topology: %w", err)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("%s: empty topology", path)
	}
	return specs, nil
}

func parseIntList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
