package peernet

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"diffusearch/internal/embed"
	"diffusearch/internal/gengraph"
	"diffusearch/internal/graph"
	"diffusearch/internal/retrieval"
)

// queryIDRecorder is a Transport that notes the id of every query its peer
// injects into its own loop — the one place a Query call's id is visible
// from outside.
type queryIDRecorder struct {
	Transport
	self graph.NodeID

	mu  sync.Mutex
	ids []string
}

func (r *queryIDRecorder) Send(to graph.NodeID, env Envelope) error {
	if to == r.self && env.From == r.self && env.Type == MsgQuery {
		var pl queryPayload
		if err := json.Unmarshal(env.Data, &pl); err == nil {
			r.mu.Lock()
			r.ids = append(r.ids, pl.QueryID)
			r.mu.Unlock()
		}
	}
	return r.Transport.Send(to, env)
}

// TestNewQueryIDDistinctAtOneClockReading is the deterministic half of the
// id-collision fix: ids minted at the same instant — what two concurrent
// Query calls see when they read the same clock value — must differ.
func TestNewQueryIDDistinctAtOneClockReading(t *testing.T) {
	fabric := NewChannelFabric(1, 0)
	defer fabric.Close()
	p, err := NewPeer(PeerConfig{ID: 0, Vocab: testVocab(t), Alpha: 0.5}, fabric.Transport(0))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000000, 12345)
	const calls = 64
	ids := make([]string, calls)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = p.newQueryID(now)
		}(i)
	}
	wg.Wait()
	seen := make(map[string]bool, calls)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("query id %q minted twice at one clock reading", id)
		}
		seen[id] = true
	}
}

// TestConcurrentQueriesOnOnePeer starts 64 Query calls at once on one peer
// of a channel-fabric overlay. Every call must get its own id and its own
// answer before the timeout, and the overlay must go quiet afterwards
// having sent a bounded number of messages: with a shared id one call
// loses its waiter and times out, and the response nobody waits for is
// forwarded origin→origin without end.
func TestConcurrentQueriesOnOnePeer(t *testing.T) {
	vocab := testVocab(t)
	bench, err := embed.MineBenchmark(vocab, 10, 0.6, 5)
	if err != nil {
		t.Fatal(err)
	}
	pair := bench.Pairs[0]
	g := gengraph.RingLattice(12, 4)
	docs := map[graph.NodeID][]retrieval.DocID{
		3: {pair.Gold},
		7: {bench.Pool[0], bench.Pool[1]},
	}
	const origin, calls, ttl = 2, 64, 5
	fabric := NewChannelFabric(g.NumNodes(), 0)
	rec := &queryIDRecorder{Transport: fabric.Transport(origin), self: origin}
	peers := make([]*Peer, g.NumNodes())
	for u := range peers {
		var tr Transport = fabric.Transport(u)
		if u == origin {
			tr = rec
		}
		p, err := NewPeer(PeerConfig{
			ID: u, Neighbors: g.Neighbors(u), Vocab: vocab, Docs: docs[u], Alpha: 0.3, PushTol: 1e-8,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		peers[u] = p
	}
	for _, p := range peers {
		p.Start()
	}
	defer stopPeers(peers, fabric)
	waitQuiescent(t, peers, 20*time.Second)

	sent := func() (total int64) {
		for _, p := range peers {
			_, m := p.Stats()
			total += m
		}
		return total
	}
	before := sent()
	query := vocab.Vector(pair.Query)
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			res, err := peers[origin].Query(query, ttl, 1, 10*time.Second)
			if err == nil && (len(res) != 1 || res[0].Doc != pair.Gold) {
				t.Errorf("query results %v, want gold %d", res, pair.Gold)
			}
			errs <- err
		}()
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	rec.mu.Lock()
	seen := make(map[string]bool, calls)
	for _, id := range rec.ids {
		if seen[id] {
			t.Errorf("query id %q used by two calls", id)
		}
		seen[id] = true
	}
	rec.mu.Unlock()
	if len(seen) != calls {
		t.Errorf("%d distinct query ids for %d calls", len(seen), calls)
	}
	// One injection, at most ttl forwards and as many responses on the way
	// back per query; a looping stray response would blow through this
	// within milliseconds and never let the overlay quiesce.
	waitQuiescent(t, peers, 20*time.Second)
	if got, limit := sent()-before, int64(calls*(1+2*(ttl+1))); got > limit {
		t.Errorf("%d messages for %d queries, want at most %d", got, calls, limit)
	}
}
