package server

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"primelabel/internal/server/api"
)

func TestQueryCacheLRUEviction(t *testing.T) {
	c := newQueryCache(2)
	r := func(n int) *api.QueryResponse { return &api.QueryResponse{Count: n} }
	c.put("a", 0, "", r(1))
	c.put("b", 0, "", r(2))
	if got, _ := c.get(0, "a"); got == nil {
		t.Fatal("a missing before capacity reached")
	}
	// a was just used, so adding c must evict b.
	c.put("c", 0, "", r(3))
	if got, _ := c.get(0, "b"); got != nil {
		t.Fatal("b should have been evicted as least recently used")
	}
	if got, _ := c.get(0, "a"); got == nil || got.Count != 1 {
		t.Fatalf("a = %+v", got)
	}
	if got, _ := c.get(0, "c"); got == nil || got.Count != 3 {
		t.Fatalf("c = %+v", got)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestQueryCacheReplaceInPlace(t *testing.T) {
	c := newQueryCache(4)
	c.put("q", 1, "", &api.QueryResponse{Count: 1})
	c.put("q", 1, "", &api.QueryResponse{Count: 2}) // replace in place
	if got, _ := c.get(1, "q"); got.Count != 2 {
		t.Fatalf("replace kept old value %d", got.Count)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d after replace, want 1", c.len())
	}
}

// TestQueryCacheGenerationTagging pins the lazy-invalidation contract: an
// entry only hits at the generation it was computed at, a stale probe
// evicts it, and a re-put at the new generation serves again — no sweep
// anywhere.
func TestQueryCacheGenerationTagging(t *testing.T) {
	c := newQueryCache(4)
	c.put("q", 1, "", &api.QueryResponse{Count: 1})
	c.put("other", 1, "", &api.QueryResponse{Count: 9})
	if got, _ := c.get(1, "q"); got == nil || got.Count != 1 {
		t.Fatalf("same-generation lookup missed: %+v", got)
	}
	if got, _ := c.get(2, "q"); got != nil {
		t.Fatal("stale-generation lookup hit")
	}
	if c.len() != 1 {
		t.Fatalf("stale entry not evicted lazily: len = %d, want 1", c.len())
	}
	// The untouched entry survives the other's invalidation (no sweep)...
	if got, _ := c.get(1, "other"); got == nil || got.Count != 9 {
		t.Fatalf("unrelated entry lost: %+v", got)
	}
	// ...and a put at the new generation overwrites gen and value together.
	c.put("other", 2, "", &api.QueryResponse{Count: 10})
	if got, _ := c.get(2, "other"); got == nil || got.Count != 10 {
		t.Fatalf("new generation missed: %+v", got)
	}
	if got, _ := c.get(1, "other"); got != nil {
		t.Fatal("old generation still served after re-put")
	}
}

// TestQueryCacheCounters checks the hit/miss counter pair: compulsory
// misses, same-generation hits, and stale-generation probes (counted as
// misses) all land where the per-document metric series expects them.
func TestQueryCacheCounters(t *testing.T) {
	c := newQueryCache(4)
	c.get(1, "q") // miss: empty
	c.put("q", 1, "", &api.QueryResponse{Count: 1})
	c.get(1, "q") // hit
	c.get(1, "q") // hit
	c.get(2, "q") // miss: stale generation
	if hits, misses := c.counters(); hits != 2 || misses != 2 {
		t.Fatalf("counters = %d hits, %d misses; want 2, 2", hits, misses)
	}
}

func TestQueryCacheDisabled(t *testing.T) {
	c := newQueryCache(0)
	c.put("q", 0, "", &api.QueryResponse{Count: 1})
	if got, _ := c.get(0, "q"); got != nil {
		t.Fatal("capacity 0 must never cache")
	}
	if hits, misses := c.counters(); hits != 0 || misses != 1 {
		t.Fatalf("disabled cache counters = %d hits, %d misses; want 0, 1", hits, misses)
	}
}

// TestQueryCacheConcurrent exercises the cache's own lock under -race,
// with writers racing on overlapping keys across moving generations.
func TestQueryCacheConcurrent(t *testing.T) {
	c := newQueryCache(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("q%d", (w+i)%12)
				gen := uint64(i / 50)
				if got, _ := c.get(gen, key); got == nil {
					c.put(key, gen, "", &api.QueryResponse{Count: i})
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestDocCacheCountersCountEachQueryOnce pins the per-document cache
// counters to one hit or one miss per query, in every terminal mode with
// explain on and off, so on a one-document store they sum to the query
// count and equal the global counters. Count and exists queries probe two
// cache keys and must still count once, with caching on or off.
func TestDocCacheCountersCountEachQueryOnce(t *testing.T) {
	ctx := context.Background()
	for _, capacity := range []int{16, 0} {
		st := NewStore(NewMetrics(), capacity)
		if _, err := st.Load(ctx, "books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
			t.Fatal(err)
		}
		queries := uint64(0)
		for round := 0; round < 2; round++ {
			for _, q := range []string{"//book", "//title", "//shelf/book[2]"} {
				for _, explain := range []bool{false, true} {
					// Count first, so count and exists probe both keys on
					// a fresh document before a full entry exists.
					for _, mode := range []string{api.QueryModeCount, api.QueryModeExists, api.QueryModeNodes} {
						if _, err := st.QueryMode(ctx, "books", q, mode, explain); err != nil {
							t.Fatal(err)
						}
						queries++
					}
					if err := st.QueryStream(ctx, "books", q, explain, func(any) error { return nil }); err != nil {
						t.Fatal(err)
					}
					queries++
				}
			}
		}
		d, err := st.get("books")
		if err != nil {
			t.Fatal(err)
		}
		hits, misses := d.cache.counters()
		if hits+misses != queries {
			t.Errorf("cache %d: %d hits + %d misses for %d queries", capacity, hits, misses, queries)
		}
		if gh, gm := st.metrics.cacheHits.Load(), st.metrics.cacheMisses.Load(); hits != gh || misses != gm {
			t.Errorf("cache %d: document counts %d hits, %d misses; global %d, %d", capacity, hits, misses, gh, gm)
		}
		if capacity == 0 && hits != 0 {
			t.Errorf("disabled cache counted %d hits", hits)
		}
	}
}
