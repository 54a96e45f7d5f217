package serve

import (
	"container/list"
	"math"
	"sync"
)

// Key fingerprints a query embedding exactly: the raw IEEE-754 bit pattern
// of every component, little-endian, as a string. Two queries share a key
// iff they are bitwise identical, so cache lookups and in-batch dedup can
// never alias distinct queries (unlike a fixed-width hash). The scheduling
// class is deliberately not part of the key: the same query yields the
// same scores whatever its class, so sharing a column is correct.
func Key(query []float64) string {
	b := make([]byte, 0, len(query)*8)
	for _, x := range query {
		v := math.Float64bits(x)
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(b)
}

// lru is a bounded least-recently-used score cache. A zero or negative
// capacity disables it (every get misses, every put is dropped), which
// keeps the scheduler's fast path branch-free at the call sites.
//
// The generation counter guards against a put racing an invalidation: a
// scorer that started before a topology patch may finish after the cache
// was invalidated, and its columns — computed on the old topology — must
// not re-enter the cache. Writers capture gen() before scoring and insert
// with putAt, which drops the entry if any invalidation intervened.
type lru struct {
	mu    sync.Mutex
	cap   int
	gen   uint64
	bytes int64 // payload accounting: Σ per entry len(key) + 8·len(scores)
	items map[string]*list.Element
	order *list.List // front = most recently used
}

type lruEntry struct {
	key    string
	scores []float64
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, items: make(map[string]*list.Element), order: list.New()}
}

// get returns the cached score column for the key, promoting it to most
// recently used.
func (c *lru) get(key string) ([]float64, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).scores, true
}

// generation returns the current invalidation generation; pair with putAt.
func (c *lru) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// putAt inserts or refreshes a score column, evicting the least recently
// used entry at capacity. The entry is dropped instead when an
// invalidation (clear or dropIf) ran after gen was captured — the scores
// were computed against state the invalidation declared stale.
func (c *lru) putAt(gen uint64, key string, scores []float64) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry)
		c.bytes += 8 * int64(len(scores)-len(e.scores))
		e.scores = scores
		c.order.MoveToFront(el)
		return
	}
	for len(c.items) >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		e := oldest.Value.(*lruEntry)
		c.bytes -= entryBytes(e)
		delete(c.items, e.key)
	}
	e := &lruEntry{key: key, scores: scores}
	c.items[key] = c.order.PushFront(e)
	c.bytes += entryBytes(e)
}

// entryBytes is one entry's payload: the key string plus its score
// column (8 bytes per float64). Container overhead is deliberately not
// modelled — the gauge tracks what the cached data itself costs.
func entryBytes(e *lruEntry) int64 {
	return int64(len(e.key)) + 8*int64(len(e.scores))
}

// clear drops every entry (topology invalidation).
func (c *lru) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.bytes = 0
	c.items = make(map[string]*list.Element)
	c.order.Init()
}

// dropIf removes every entry whose score column satisfies pred and returns
// how many were dropped (targeted topology invalidation: see
// Scheduler.InvalidateNodes).
func (c *lru) dropIf(pred func(scores []float64) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A targeted invalidation stales in-flight scorers just like clear: a
	// batch diffused on the pre-patch topology may contain columns the
	// predicate would have dropped had they been cached in time.
	c.gen++
	dropped := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*lruEntry)
		if pred(e.scores) {
			c.order.Remove(el)
			c.bytes -= entryBytes(e)
			delete(c.items, e.key)
			dropped++
		}
		el = next
	}
	return dropped
}

// len returns the live entry count.
func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// sizeBytes returns the live payload bytes (see entryBytes) — the
// Stats.CacheBytes gauge.
func (c *lru) sizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
