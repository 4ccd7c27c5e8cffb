// Package querystats is labeld's pg_stat_statements analogue: a bounded
// registry of per-(document, query shape) execution statistics. Every query
// the store serves is recorded under its normalized shape (positional
// predicates masked, so /a/b[1] and /a/b[7] aggregate together), giving
// operators call counts, latency and candidate-volume distributions,
// cache-hit ratios, and — for each shape — the execution
// profile captured at its slowest call.
//
// Memory is bounded by the entry table, an LRU over shapes with a fixed
// capacity: recording a new shape past capacity evicts the
// least-recently-used one. The caller normalizes each query to its shape
// (xpath.Query.Shape) as part of the parse it needs anyway. Registry-wide
// totals live outside the LRU so the labeld_querystats_* counters stay
// monotonic across evictions.
package querystats

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"primelabel/internal/hist"
	"primelabel/internal/server/api"
)

// DefaultCapacity is the entry-table bound used when the server does not
// configure one.
const DefaultCapacity = 4096

// candidateBounds are the bucket upper bounds of the unitless candidate-row
// histogram: how many post-filter candidate rows one execution scanned.
var candidateBounds = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144}

// Key identifies one registry entry: a document and a normalized query
// shape.
type Key struct {
	Doc   string
	Shape string
}

// entry is one (doc, shape)'s live aggregate.
type entry struct {
	key         Key
	calls       uint64
	errors      uint64
	cacheHits   uint64
	latency     *hist.Histogram
	candidates  *hist.Histogram
	maxLatency  time.Duration
	slowProfile *api.QueryExplain
	elem        *list.Element
}

// Sample is one query execution as the store reports it.
type Sample struct {
	// Doc is the document name; Shape the query's normalized shape
	// (xpath.Query.Shape, or the raw text of a query that does not parse).
	Doc   string
	Shape string
	// Latency is the request's query-path wall time.
	Latency time.Duration
	// Candidates is the executor's candidate-row volume (0 on cache hits).
	Candidates int
	// CacheHit and Err classify the call: answered from the query cache, or
	// failed.
	CacheHit bool
	Err      bool
	// Profile is the call's execution profile; the registry keeps the one
	// attached to the shape's slowest call so far. Callers pass the full
	// ?explain=1 profile when the request carried one and a planner-summary
	// profile otherwise; nil records no profile.
	Profile *api.QueryExplain
}

// Registry aggregates query samples under (doc, shape) keys with LRU
// eviction. Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	cap     int
	entries map[Key]*entry
	lru     *list.List // front = most recently used

	// Registry-wide monotonic totals (survive entry eviction) plus global
	// latency/candidate histograms for the exposition series.
	calls      atomic.Uint64
	errors     atomic.Uint64
	cacheHits  atomic.Uint64
	evictions  atomic.Uint64
	latency    *hist.Histogram
	candidates *hist.Histogram
}

// New returns a registry bounded to capacity entries (DefaultCapacity when
// capacity <= 0).
func New(capacity int) *Registry {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Registry{
		cap:        capacity,
		entries:    make(map[Key]*entry),
		lru:        list.New(),
		latency:    hist.NewDefault(),
		candidates: hist.New(candidateBounds),
	}
}

// Capacity returns the entry-table bound.
func (r *Registry) Capacity() int { return r.cap }

// Record folds one query execution into the registry.
func (r *Registry) Record(s Sample) {
	r.calls.Add(1)
	if s.Err {
		r.errors.Add(1)
	}
	if s.CacheHit {
		r.cacheHits.Add(1)
	}
	r.latency.Observe(s.Latency)
	if !s.CacheHit {
		r.candidates.ObserveValue(float64(s.Candidates))
	}
	key := Key{Doc: s.Doc, Shape: s.Shape}

	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[key]
	if !ok {
		if len(r.entries) >= r.cap {
			// Evict the least-recently-used shape.
			back := r.lru.Back()
			victim := back.Value.(*entry)
			r.lru.Remove(back)
			delete(r.entries, victim.key)
			r.evictions.Add(1)
		}
		e = &entry{
			key:        key,
			latency:    hist.NewDefault(),
			candidates: hist.New(candidateBounds),
		}
		e.elem = r.lru.PushFront(e)
		r.entries[key] = e
	} else {
		r.lru.MoveToFront(e.elem)
	}
	e.calls++
	if s.Err {
		e.errors++
	}
	if s.CacheHit {
		e.cacheHits++
	}
	e.latency.Observe(s.Latency)
	if !s.CacheHit {
		e.candidates.ObserveValue(float64(s.Candidates))
	}
	if s.Latency >= e.maxLatency {
		e.maxLatency = s.Latency
		if s.Profile != nil {
			e.slowProfile = s.Profile
		}
	}
}

// Len returns the number of tracked (doc, shape) entries.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Totals returns the registry-wide monotonic counters: calls, errors, cache
// hits, and LRU evictions.
func (r *Registry) Totals() (calls, errors, cacheHits, evictions uint64) {
	return r.calls.Load(), r.errors.Load(), r.cacheHits.Load(), r.evictions.Load()
}

// Latency returns a snapshot of the registry-wide latency histogram.
func (r *Registry) Latency() hist.Snapshot { return r.latency.Snapshot() }

// Candidates returns a snapshot of the registry-wide candidate-volume
// histogram (unitless bounds).
func (r *Registry) Candidates() hist.Snapshot { return r.candidates.Snapshot() }

// Snapshot renders the registry as its wire form: entries filtered to doc
// (all documents when empty), sorted by total execution time descending, and
// truncated to the k most expensive (all when k <= 0). Each returned entry
// carries its slowest call's profile.
func (r *Registry) Snapshot(doc string, k int) api.QueryStatsResponse {
	r.mu.Lock()
	resp := api.QueryStatsResponse{
		Shapes:    len(r.entries),
		Capacity:  r.cap,
		Evictions: r.evictions.Load(),
	}
	for _, e := range r.entries {
		if doc != "" && e.key.Doc != doc {
			continue
		}
		resp.Entries = append(resp.Entries, e.wire())
	}
	r.mu.Unlock()

	sortEntries(resp.Entries)
	if k > 0 && len(resp.Entries) > k {
		resp.Entries = resp.Entries[:k]
	}
	return resp
}

// wire converts one live entry to its response form. Called under r.mu; the
// histograms are atomic so snapshotting them there is cheap and safe.
func (e *entry) wire() api.QueryStatsEntry {
	lat := e.latency.Snapshot()
	out := api.QueryStatsEntry{
		Doc:         e.key.Doc,
		Shape:       e.key.Shape,
		Calls:       e.calls,
		Errors:      e.errors,
		CacheHits:   e.cacheHits,
		TotalMS:     lat.SumSeconds * 1e3,
		P50MS:       float64(lat.Quantile(0.50)) / 1e6,
		P95MS:       float64(lat.Quantile(0.95)) / 1e6,
		MaxMS:       float64(e.maxLatency) / 1e6,
		SlowProfile: e.slowProfile,
	}
	if lat.Count > 0 {
		out.MeanMS = out.TotalMS / float64(lat.Count)
	}
	cand := e.candidates.Snapshot()
	if cand.Count > 0 {
		// ObserveValue stores unitless values dressed as seconds, so the
		// snapshot sum is the plain candidate total.
		out.MeanCandidates = cand.SumSeconds / float64(cand.Count)
	}
	return out
}

// sortEntries orders entries by total execution time, descending, breaking
// ties by (doc, shape) so the output is deterministic.
func sortEntries(es []api.QueryStatsEntry) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.TotalMS != b.TotalMS {
			return a.TotalMS > b.TotalMS
		}
		if a.Doc != b.Doc {
			return a.Doc < b.Doc
		}
		return a.Shape < b.Shape
	})
}
