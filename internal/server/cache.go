package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"primelabel/internal/server/api"
)

// queryCache is a fixed-capacity LRU of query results for one document.
// Every entry is tagged with the document generation it was computed
// against; a lookup only hits when the entry's generation matches the
// document's current one, and a stale entry found in place is evicted
// lazily. Mutations therefore never sweep the cache — a failed or no-op
// update (which leaves the generation unchanged) keeps every cached
// result live, and a real update invalidates entries one probe at a time
// as they are re-requested.
//
// The cache has its own mutex so readers holding the document's RLock can
// share it: lookups and fills interleave freely across concurrent queries.
// Cached *api.QueryResponse values are shared between requests and must be
// treated as immutable by all callers. The hit/miss counters count lookups,
// one per query however many keys it probes; they are atomics read by the
// metrics scraper without taking the cache lock.
type queryCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // query -> element whose Value is *cacheEntry

	hits   atomic.Uint64 // lookups answered from a generation-current entry
	misses atomic.Uint64 // lookups that fell through to evaluation
}

type cacheEntry struct {
	key   string
	gen   uint64 // document generation the response was computed against
	shape string // the query's query-stats shape, so a hit need not parse
	resp  *api.QueryResponse
}

// newQueryCache returns an LRU holding up to capacity results; capacity <= 0
// disables caching (every lookup misses, puts are dropped).
func newQueryCache(capacity int) *queryCache {
	return &queryCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// get is one lookup: it returns the response and query shape cached under
// the first of keys that holds one computed at generation gen, promoting it
// to most recently used; a nil response is a miss. An entry from any other
// generation is stale and is evicted on the way. The lookup counts one hit
// or one miss, however many keys it probes.
func (c *queryCache) get(gen uint64, keys ...string) (*api.QueryResponse, string) {
	if c.cap > 0 {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, k := range keys {
			el, ok := c.items[k]
			if !ok {
				continue
			}
			ent := el.Value.(*cacheEntry)
			if ent.gen != gen {
				c.ll.Remove(el)
				delete(c.items, ent.key)
				continue
			}
			c.ll.MoveToFront(el)
			c.hits.Add(1)
			return ent.resp, ent.shape
		}
	}
	c.misses.Add(1)
	return nil, ""
}

// put stores a response computed at generation gen with its query's shape,
// evicting the least recently used entry when full. A same-query entry from
// an older generation is overwritten in place.
func (c *queryCache) put(query string, gen uint64, shape string, resp *api.QueryResponse) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[query]; ok {
		ent := el.Value.(*cacheEntry)
		ent.resp = resp
		ent.gen = gen
		ent.shape = shape
		c.ll.MoveToFront(el)
		return
	}
	c.items[query] = c.ll.PushFront(&cacheEntry{key: query, gen: gen, shape: shape, resp: resp})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// counters returns the cumulative hit and miss counts (safe without the
// cache lock).
func (c *queryCache) counters() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// len returns the number of cached results (stale entries not yet
// lazily evicted included).
func (c *queryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
