package peernet

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"diffusearch/internal/embed"
	"diffusearch/internal/graph"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/vecmath"
)

// PeerConfig configures one peer.
type PeerConfig struct {
	ID        graph.NodeID
	Neighbors []graph.NodeID
	Vocab     *embed.Vocabulary
	Docs      []retrieval.DocID
	Alpha     float64 // PPR teleport probability
	PushTol   float64 // re-gossip threshold; 0 means 1e-6
	Scorer    retrieval.Scorer

	// GossipInterval paces embedding announcements (anti-entropy): a peer
	// re-gossips at most once per interval, and only when its embedding
	// moved by more than PushTol since the last announcement. This bounds
	// message volume regardless of inbound traffic patterns. 0 means 2ms.
	GossipInterval time.Duration

	// ScoreQuery, when set, supplies global per-node relevance scores for
	// a query embedding (cmd/peerd wires it to a DiffusionRequest-driven
	// core.Network.ScoreBatch over the mirrored topology, so the live TCP
	// runtime serves queries through the same request API as the
	// simulation). Forwarding then ranks candidate neighbours by
	// scores[neighbour] instead of gossip-cached embeddings; on error the
	// peer falls back to gossip scoring (best effort, like the transport).
	ScoreQuery func(query []float64) ([]float64, error)

	// Filter sizes the bloom summary of the peer's document holdings that
	// is gossiped piggyback on embed messages and consulted by the routing
	// gate in handleQuery (see filter.go). The zero value disables filters:
	// queries then forward by embedding similarity alone.
	Filter FilterConfig
}

// Peer is a running protocol participant: it gossips embeddings until the
// PPR diffusion converges (§IV-B) and serves/forwards queries per Fig. 1.
// Start launches its event loop; Stop shuts it down.
type Peer struct {
	cfg   PeerConfig
	tr    Transport
	index *retrieval.LocalIndex
	e0    []float64 // personalization vector (eq. 3)

	mu         sync.Mutex
	own        []float64                          // current diffused embedding
	lastPushed []float64                          // embedding as of the last gossip
	cache      map[graph.NodeID][]float64         // last received neighbour embeddings
	queries    map[string]*peerQueryState         // per-query protocol memory (bounded, see maxQueryStates)
	queryOrder []string                           // insertion order for FIFO eviction of queries
	waiters    map[string]chan []retrieval.Result // origin-side response collectors
	querySeq   atomic.Uint64                      // distinguishes this peer's queries; see newQueryID
	updates    atomic.Int64
	messages   atomic.Int64

	// Bloom routing state (nil/empty when cfg.Filter is disabled). The
	// local filter re-encodes on every collection change; filterDirty
	// forces the change onto the wire at the next gossip tick even when the
	// embedding itself did not drift (bounded re-broadcast: at most one
	// announcement per GossipInterval either way).
	filter      *BloomFilter
	filterWire  []byte
	filterDirty bool
	nbFilters   map[graph.NodeID]*neighborFilter

	// Routing gate outcomes (see routeDecision): forwards steered by a
	// filter hit, all-miss fallbacks to the plain greedy walk, and early
	// stops where every candidate provably held none of the query's keys.
	routedHits  atomic.Int64
	routedMiss  atomic.Int64
	routedStops atomic.Int64

	// queryCh feeds the dedicated query goroutine: query handling may run
	// a ScoreQuery oracle (a whole-graph diffusion on a cold cache), which
	// must never stall the gossip event loop. One consumer keeps all
	// per-query protocol state single-threaded, as the main loop used to.
	queryCh chan Envelope

	quit  chan struct{}
	done  chan struct{}
	qdone chan struct{}
}

type peerQueryState struct {
	parent       graph.NodeID
	receivedFrom map[graph.NodeID]struct{}
	sentTo       map[graph.NodeID]struct{}
}

// Wire payloads.
type embedPayload struct {
	Embedding []float64 `json:"embedding"`
	// Filter piggybacks the sender's encoded bloom summary (bloom.go wire
	// format) on the gossip it already pays for; absent when disabled.
	Filter []byte `json:"filter,omitempty"`
}

type queryPayload struct {
	QueryID   string             `json:"query_id"`
	Embedding []float64          `json:"embedding"`
	TTL       int                `json:"ttl"`
	K         int                `json:"k"`
	Results   []retrieval.Result `json:"results,omitempty"`
	// Keys are the origin-computed doc-term keys the routing gate probes
	// neighbour filters with (see QueryKeys); empty disables routing for
	// this query.
	Keys []retrieval.DocID `json:"keys,omitempty"`
}

type responsePayload struct {
	QueryID string             `json:"query_id"`
	Results []retrieval.Result `json:"results,omitempty"`
}

// NewPeer creates a peer bound to a transport. Call Start to launch it.
func NewPeer(cfg PeerConfig, tr Transport) (*Peer, error) {
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("peernet: teleport probability %v out of (0,1]", cfg.Alpha)
	}
	if cfg.Vocab == nil {
		return nil, fmt.Errorf("peernet: nil vocabulary")
	}
	if cfg.PushTol <= 0 {
		cfg.PushTol = 1e-6
	}
	if cfg.Scorer == 0 {
		cfg.Scorer = retrieval.DotProduct
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 2 * time.Millisecond
	}
	cfg.Filter = cfg.Filter.withDefaults()
	neighbors := make([]graph.NodeID, len(cfg.Neighbors))
	copy(neighbors, cfg.Neighbors)
	sort.Ints(neighbors)
	cfg.Neighbors = neighbors

	index := retrieval.NewLocalIndex(cfg.Vocab, cfg.Docs)
	p := &Peer{
		cfg:     cfg,
		tr:      tr,
		index:   index,
		e0:      index.PersonalizationVector(),
		cache:   make(map[graph.NodeID][]float64, len(neighbors)),
		queries: make(map[string]*peerQueryState),
		waiters: make(map[string]chan []retrieval.Result),
		queryCh: make(chan Envelope, 256),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		qdone:   make(chan struct{}),
	}
	p.own = vecmath.Clone(p.e0)
	p.lastPushed = vecmath.Clone(p.e0)
	if cfg.Filter.Enabled() {
		p.nbFilters = make(map[graph.NodeID]*neighborFilter, len(neighbors))
		p.rebuildFilterLocked() // construction: no concurrent access yet
		p.filterDirty = false   // Start's bootstrap announcement carries it
	}
	return p, nil
}

// ID returns the peer id.
func (p *Peer) ID() graph.NodeID { return p.cfg.ID }

// Start launches the event loops (gossip and query handling) and announces
// the personalization vector to all neighbours (diffusion bootstrap).
func (p *Peer) Start() {
	go p.loop()
	go p.queryLoop()
	p.gossip(p.announcement())
}

// announcement snapshots the embed payload under the lock: the current
// embedding plus, when filters are enabled, the encoded local filter.
func (p *Peer) announcement() embedPayload {
	p.mu.Lock()
	defer p.mu.Unlock()
	return embedPayload{Embedding: vecmath.Clone(p.own), Filter: p.filterWire}
}

// Stop terminates the event loops and waits for them to exit. The transport
// is not closed; the owner closes it (it may be shared fabric state).
func (p *Peer) Stop() {
	close(p.quit)
	<-p.done
	<-p.qdone
}

// Embedding returns a copy of the current diffused embedding.
func (p *Peer) Embedding() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return vecmath.Clone(p.own)
}

// AddDocuments inserts documents into the local collection at runtime and
// recomputes the personalization vector (§IV: "when new nodes enter the
// network or update their document collections, they compute
// personalization vectors" and re-diffuse). The next gossip ticks propagate
// the change through the network.
func (p *Peer) AddDocuments(docs ...retrieval.DocID) {
	p.mu.Lock()
	p.index.Add(docs...)
	p.e0 = p.index.PersonalizationVector()
	// Refresh our own embedding immediately so local answers and the next
	// announcement reflect the new collection.
	p.recomputeEmbeddingLocked()
	p.rebuildFilterLocked()
	p.mu.Unlock()
	p.updates.Add(1)
}

// SetDocuments replaces the whole document collection — the placement-patch
// path (cmd/peerd applies it when a SIGHUP-reloaded topology file moves
// documents, rebuilding the local filter from the patched placement). The
// personalization vector, embedding, and bloom filter are all recomputed;
// the next gossip tick announces the change.
func (p *Peer) SetDocuments(docs []retrieval.DocID) {
	p.mu.Lock()
	p.index = retrieval.NewLocalIndex(p.cfg.Vocab, docs)
	p.e0 = p.index.PersonalizationVector()
	p.recomputeEmbeddingLocked()
	p.rebuildFilterLocked()
	p.mu.Unlock()
	p.updates.Add(1)
}

// rebuildFilterLocked re-summarizes the local collection and marks the
// encoding for re-broadcast. Callers hold p.mu. No-op when disabled.
func (p *Peer) rebuildFilterLocked() {
	if !p.cfg.Filter.Enabled() {
		return
	}
	p.filter = buildFilter(p.cfg.Filter, p.index.Docs())
	p.filterWire = p.filter.Encode()
	p.filterDirty = true
}

// Docs returns the peer's current document collection.
func (p *Peer) Docs() []retrieval.DocID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.index.Docs()
}

// Stats returns (local updates applied, messages sent).
func (p *Peer) Stats() (updates, messages int64) {
	return p.updates.Load(), p.messages.Load()
}

// FilterStats is a point-in-time snapshot of the bloom routing state,
// exposed by cmd/peerd on /statusz and as telemetry gauges.
type FilterStats struct {
	Enabled bool    `json:"enabled"`
	Bits    int     `json:"bits,omitempty"`
	Hashes  int     `json:"hashes,omitempty"`
	Fill    float64 `json:"fill,omitempty"`     // local filter saturation
	Cached  int     `json:"cached"`             // neighbour summaries held
	Stale   int     `json:"stale"`              // of those, awaiting re-proof
	Hits    int64   `json:"routed_hits"`        // forwards steered by a filter hit
	Misses  int64   `json:"routed_fallbacks"`   // all-miss fallbacks to plain greedy
	Stops   int64   `json:"routed_early_stops"` // walks answered without forwarding
}

// FilterStats snapshots the routing-gate state.
func (p *Peer) FilterStats() FilterStats {
	s := FilterStats{
		Enabled: p.cfg.Filter.Enabled(),
		Hits:    p.routedHits.Load(),
		Misses:  p.routedMiss.Load(),
		Stops:   p.routedStops.Load(),
	}
	if !s.Enabled {
		return s
	}
	s.Bits, s.Hashes = p.cfg.Filter.Bits, p.cfg.Filter.Hashes
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.filter != nil {
		s.Fill = p.filter.FillRatio()
	}
	s.Cached = len(p.nbFilters)
	for _, nf := range p.nbFilters {
		if nf.stale {
			s.Stale++
		}
	}
	return s
}

func (p *Peer) loop() {
	defer close(p.done)
	inbox := p.tr.Inbox()
	ticker := time.NewTicker(p.cfg.GossipInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.quit:
			return
		case env, ok := <-inbox:
			if !ok {
				return
			}
			// Coalesce: drain every already-delivered envelope before
			// acting. A burst of embed messages then triggers ONE local
			// recomputation instead of one per message.
			embedDirty := p.absorb(env)
			for drained := false; !drained; {
				select {
				case more, ok := <-inbox:
					if !ok {
						return
					}
					embedDirty = p.absorb(more) || embedDirty
				default:
					drained = true
				}
			}
			if embedDirty {
				p.recomputeEmbedding()
			}
		case <-ticker.C:
			// Anti-entropy pacing: announce at most once per interval and
			// only when the embedding moved since the last announcement.
			// This bounds gossip volume regardless of inbound traffic.
			p.maybeGossip()
		}
	}
}

// maybeGossip announces the current embedding when it drifted more than
// PushTol from the last announcement, or when the local filter changed
// since (filterDirty). Either way the announcement carries both, so a
// filter change costs no extra messages beyond the one re-broadcast.
func (p *Peer) maybeGossip() {
	p.mu.Lock()
	if vecmath.MaxAbsDiff(p.own, p.lastPushed) <= p.cfg.PushTol && !p.filterDirty {
		p.mu.Unlock()
		return
	}
	copy(p.lastPushed, p.own)
	pl := embedPayload{Embedding: vecmath.Clone(p.own), Filter: p.filterWire}
	p.filterDirty = false
	p.mu.Unlock()
	p.gossip(pl)
}

// absorb processes one envelope: embed messages only update the neighbour
// cache (recomputation is coalesced by the caller); queries and responses
// are handed to the query goroutine so a slow scoring oracle never blocks
// gossip. It reports whether the embedding cache changed.
func (p *Peer) absorb(env Envelope) bool {
	switch env.Type {
	case MsgEmbed:
		var pl embedPayload
		if json.Unmarshal(env.Data, &pl) != nil {
			return false // malformed gossip: ignore
		}
		return p.cacheEmbed(env.From, pl)
	case MsgQuery:
		select {
		case p.queryCh <- env:
		default:
			// Bounded mailbox: shed fresh work under overload, like the
			// transport. Queries are timeout-guarded at their origin.
		}
	case MsgResponse:
		// Responses carry completed work and are cheap to relay (no
		// scoring), so they are handled inline and never shed.
		var pl responsePayload
		if json.Unmarshal(env.Data, &pl) == nil {
			p.handleResponse(pl)
		}
	}
	return false
}

// queryLoop runs query handling on its own goroutine: candidate scoring
// may hit a ScoreQuery oracle (a whole-graph diffusion on a cold cache),
// which must never stall the gossip loop. Per-query protocol state it
// shares with the response path is guarded by p.mu.
func (p *Peer) queryLoop() {
	defer close(p.qdone)
	for {
		select {
		case <-p.quit:
			return
		case env := <-p.queryCh:
			var pl queryPayload
			if json.Unmarshal(env.Data, &pl) == nil {
				p.handleQuery(env.From, pl)
			}
		}
	}
}

func (p *Peer) cacheEmbed(from graph.NodeID, pl embedPayload) bool {
	if !p.isNeighbor(from) || len(pl.Embedding) != p.cfg.Vocab.Dim() {
		return false
	}
	// Decode any piggybacked filter outside the lock; a malformed summary
	// degrades the sender to filterless routing but keeps its embedding.
	var nf *neighborFilter
	if p.cfg.Filter.Enabled() && len(pl.Filter) > 0 {
		if f, err := DecodeBloom(pl.Filter); err == nil {
			nf = &neighborFilter{f: f}
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.cache[from]; ok {
		copy(prev, pl.Embedding)
	} else {
		p.cache[from] = vecmath.Clone(pl.Embedding)
	}
	if nf != nil {
		// A fresh announcement re-proves the summary, clearing any stale
		// mark left by a topology patch.
		p.nbFilters[from] = nf
	}
	return true
}

// recomputeEmbedding applies the asynchronous diffusion update of §IV-B:
// e_u ← (1−a)·Σ_v A[u][v]·ê_v + a·e0_u. The peer uses the row-stochastic
// weight 1/deg(u), which it knows locally (the column-stochastic weight
// 1/deg(v) would require every neighbour's degree); both are valid
// normalizations of eq. 5. Announcement happens separately on the gossip
// ticker (maybeGossip).
func (p *Peer) recomputeEmbedding() {
	p.mu.Lock()
	p.recomputeEmbeddingLocked()
	p.mu.Unlock()
	p.updates.Add(1)
}

// recomputeEmbeddingLocked is the update body; callers hold p.mu.
func (p *Peer) recomputeEmbeddingLocked() {
	next := make([]float64, p.cfg.Vocab.Dim())
	w := (1 - p.cfg.Alpha) / float64(max(len(p.cfg.Neighbors), 1))
	for _, v := range p.cfg.Neighbors {
		if e, ok := p.cache[v]; ok {
			vecmath.AXPY(next, w, e)
		}
	}
	vecmath.AXPY(next, p.cfg.Alpha, p.e0)
	copy(p.own, next)
}

// UpdateNeighbors replaces the peer's neighbour set at runtime — the
// incremental topology path for long-running deployments (cmd/peerd applies
// it when a reloaded topology file shows peers joining or leaving, instead
// of restarting the peer). Gossip state of departed neighbours is dropped,
// the local embedding is recomputed under the new degree, and the next
// gossip ticks announce to the new set. The caller is responsible for
// refreshing any scoring oracle that mirrors the topology.
//
// Cached bloom summaries follow the staleness contract: departed
// neighbours' filters are dropped outright (never consulted again) and
// survivors are marked stale — the patch may have moved documents, so a
// stale summary is not consulted until the neighbour's next announcement
// re-proves it. The local filter is forced back onto the wire so the new
// neighbour set learns this peer's holdings within one gossip round.
func (p *Peer) UpdateNeighbors(neighbors []graph.NodeID) {
	next := make([]graph.NodeID, len(neighbors))
	copy(next, neighbors)
	sort.Ints(next)
	p.mu.Lock()
	p.cfg.Neighbors = next
	for v := range p.cache {
		if !p.isNeighborLocked(v) {
			delete(p.cache, v)
		}
	}
	for v, nf := range p.nbFilters {
		if !p.isNeighborLocked(v) {
			delete(p.nbFilters, v)
		} else {
			nf.stale = true
		}
	}
	if p.cfg.Filter.Enabled() {
		p.filterDirty = true
	}
	p.recomputeEmbeddingLocked()
	p.mu.Unlock()
	p.updates.Add(1)
}

// Neighbors returns a copy of the current neighbour set.
func (p *Peer) Neighbors() []graph.NodeID {
	return p.neighborSnapshot()
}

// handleQuery implements Fig. 1 at this peer. It runs on the query
// goroutine; per-query state shared with the inline response path is
// mutated under p.mu.
func (p *Peer) handleQuery(from graph.NodeID, pl queryPayload) {
	st := p.queryState(pl.QueryID)
	p.mu.Lock()
	if from >= 0 {
		st.receivedFrom[from] = struct{}{}
		if st.parent < 0 {
			st.parent = from
		}
	}
	p.mu.Unlock()
	// Step 2: local search into the carried tracker (the index is shared
	// with runtime AddDocuments calls).
	tracker := retrieval.NewTopK(max(pl.K, 1))
	for _, r := range pl.Results {
		tracker.Offer(r.Doc, r.Score)
	}
	p.mu.Lock()
	p.index.SearchInto(tracker, pl.Embedding, p.cfg.Scorer)
	p.mu.Unlock()
	pl.Results = tracker.Results()

	// Step 3/4b: TTL bookkeeping.
	pl.TTL--
	if pl.TTL < 0 {
		p.respond(pl.QueryID, pl.Results)
		return
	}

	// Step 4a: candidate selection (node-memory visited avoidance).
	p.mu.Lock()
	candidates := make([]graph.NodeID, 0, len(p.cfg.Neighbors))
	for _, v := range p.cfg.Neighbors {
		if _, r := st.receivedFrom[v]; r {
			continue
		}
		if _, s := st.sentTo[v]; s {
			continue
		}
		candidates = append(candidates, v)
	}
	if len(candidates) == 0 { // footnote 9
		candidates = append(candidates, p.cfg.Neighbors...)
	}
	p.mu.Unlock()
	if len(candidates) == 0 { // isolated peer
		p.respond(pl.QueryID, pl.Results)
		return
	}
	// Greedy single-walk forwarding: best candidate under the request-API
	// scores when a ScoreQuery oracle is configured, else the best
	// gossip-diffused neighbour embedding. Scoring runs outside p.mu — the
	// oracle may diffuse the whole graph on a cold cache.
	scoreOf := func(v graph.NodeID) float64 { return p.scoreNeighbor(v, pl.Embedding) }
	if p.cfg.ScoreQuery != nil {
		if scores, err := p.cfg.ScoreQuery(pl.Embedding); err == nil {
			scoreOf = func(v graph.NodeID) float64 {
				if v >= 0 && v < len(scores) {
					return scores[v]
				}
				// A neighbour the oracle does not cover (e.g. joined after
				// the topology mirror was built) must lose to every scored
				// candidate — 0 would outrank legitimately negative scores.
				return math.Inf(-1)
			}
		}
	}
	// Bloom routing gate: snapshot the fresh cached filters of the
	// candidates and let the shared routeDecision steer the greedy walk
	// (filter.go). Disabled filters or an unkeyed query degrade to the
	// plain greedy forwarding above.
	keys := pl.Keys
	filterOf := func(graph.NodeID) *BloomFilter { return nil }
	if p.cfg.Filter.Enabled() && len(keys) > 0 {
		snap := make(map[graph.NodeID]*BloomFilter, len(candidates))
		p.mu.Lock()
		for _, v := range candidates {
			if nf, ok := p.nbFilters[v]; ok && !nf.stale {
				snap[v] = nf.f
			}
		}
		p.mu.Unlock()
		filterOf = func(v graph.NodeID) *BloomFilter { return snap[v] }
	} else {
		keys = nil
	}
	best, hit, stop := routeDecision(candidates, keys, filterOf, scoreOf,
		resultsContainPrimary(pl.Results, keys))
	if len(keys) > 0 {
		switch {
		case stop:
			p.routedStops.Add(1)
		case hit:
			p.routedHits.Add(1)
		default:
			p.routedMiss.Add(1)
		}
	}
	if stop {
		// Every candidate's fresh filter proves it holds none of the
		// query's key documents, and one is already in the results:
		// respond now instead of burning the remaining TTL.
		p.respond(pl.QueryID, pl.Results)
		return
	}
	p.mu.Lock()
	st.sentTo[best] = struct{}{}
	p.mu.Unlock()
	p.send(best, MsgQuery, pl)
}

func (p *Peer) handleResponse(pl responsePayload) {
	p.mu.Lock()
	waiter, isOrigin := p.waiters[pl.QueryID]
	var parent graph.NodeID = -1
	if st, ok := p.queries[pl.QueryID]; ok {
		parent = st.parent
	}
	p.mu.Unlock()
	if isOrigin {
		waiter <- pl.Results
		return
	}
	if parent >= 0 {
		p.send(parent, MsgResponse, pl)
	}
	// No parent and no waiter: stray response; drop it.
}

// Query runs a search from this peer: it processes the query locally, lets
// the walk roam, and waits for the backtracked response (or the timeout,
// returning whatever arrived).
func (p *Peer) Query(embedding []float64, ttl, k int, timeout time.Duration) ([]retrieval.Result, error) {
	if ttl < 0 {
		return nil, fmt.Errorf("peernet: negative TTL %d", ttl)
	}
	if k < 1 {
		k = 1
	}
	id := p.newQueryID(time.Now())
	waiter := make(chan []retrieval.Result, 1)
	p.mu.Lock()
	p.waiters[id] = waiter
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.waiters, id)
		p.mu.Unlock()
	}()

	// Inject the query into our own loop through the transport so it is
	// serialized with other traffic exactly like a remote query.
	pl := queryPayload{QueryID: id, Embedding: embedding, TTL: ttl, K: k}
	if p.cfg.Filter.Enabled() {
		// Doc-term keys: the documents this query is after, probed against
		// neighbour filters at every forwarding step (routing gate).
		pl.Keys = QueryKeys(p.cfg.Vocab, embedding, p.cfg.Scorer, p.cfg.Filter.QueryKeys)
	}
	if err := p.sendTo(p.cfg.ID, MsgQuery, pl); err != nil {
		return nil, err
	}
	select {
	case res := <-waiter:
		return res, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("peernet: query %s timed out after %v", id, timeout)
	}
}

// newQueryID names a query started by this peer at now:
// q<peer>-<clock>-<sequence>. The clock keeps a restarted peer from reusing
// ids its neighbours still hold protocol state for; the per-peer sequence
// number keeps two concurrent Query calls that read the same clock value
// apart — sharing an id, one would lose its waiter and time out while its
// stray response looped origin→origin until shutdown.
func (p *Peer) newQueryID(now time.Time) string {
	return "q" + strconv.Itoa(int(p.cfg.ID)) +
		"-" + strconv.FormatInt(now.UnixNano(), 36) +
		"-" + strconv.FormatUint(p.querySeq.Add(1), 36)
}

func (p *Peer) scoreNeighbor(v graph.NodeID, query []float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.cache[v]
	if !ok {
		return 0 // no embedding received yet: zero knowledge
	}
	return p.cfg.Scorer.Score(query, e)
}

// maxQueryStates bounds the per-query protocol memory: query ids arrive
// over the wire, so an unbounded map would grow with every query a
// long-running peer ever relays. FIFO eviction drops the oldest (long
// finished, TTL-bound) states while keeping every plausibly active one.
const maxQueryStates = 1024

func (p *Peer) queryState(id string) *peerQueryState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.queries[id]
	if !ok {
		for len(p.queryOrder) >= maxQueryStates {
			oldest := p.queryOrder[0]
			p.queryOrder = p.queryOrder[1:]
			delete(p.queries, oldest)
		}
		st = &peerQueryState{
			parent:       -1,
			receivedFrom: make(map[graph.NodeID]struct{}),
			sentTo:       make(map[graph.NodeID]struct{}),
		}
		p.queries[id] = st
		p.queryOrder = append(p.queryOrder, id)
	}
	return st
}

func (p *Peer) respond(id string, results []retrieval.Result) {
	p.mu.Lock()
	waiter, isOrigin := p.waiters[id]
	var parent graph.NodeID = -1
	if st, ok := p.queries[id]; ok {
		parent = st.parent
	}
	p.mu.Unlock()
	if isOrigin {
		waiter <- results
		return
	}
	if parent >= 0 {
		p.send(parent, MsgResponse, responsePayload{QueryID: id, Results: results})
	}
}

func (p *Peer) gossip(pl embedPayload) {
	for _, v := range p.neighborSnapshot() {
		p.send(v, MsgEmbed, pl)
	}
}

// neighborSnapshot copies the neighbour set under the lock: the set is
// swappable at runtime (UpdateNeighbors), so lock-free iteration over
// p.cfg.Neighbors is only safe while holding p.mu.
func (p *Peer) neighborSnapshot() []graph.NodeID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]graph.NodeID(nil), p.cfg.Neighbors...)
}

func (p *Peer) send(to graph.NodeID, t MsgType, payload any) {
	// Best-effort: transport errors (peer down, fabric closed) drop the
	// message; diffusion re-gossips and queries are timeout-guarded.
	_ = p.sendTo(to, t, payload)
}

func (p *Peer) sendTo(to graph.NodeID, t MsgType, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("peernet: marshal %v payload: %w", t, err)
	}
	p.messages.Add(1)
	return p.tr.Send(to, Envelope{From: p.cfg.ID, Type: t, Data: data})
}

func (p *Peer) isNeighbor(v graph.NodeID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.isNeighborLocked(v)
}

// isNeighborLocked is the lookup body; callers hold p.mu.
func (p *Peer) isNeighborLocked(v graph.NodeID) bool {
	i := sort.SearchInts(p.cfg.Neighbors, v)
	return i < len(p.cfg.Neighbors) && p.cfg.Neighbors[i] == v
}
