// Package server implements labeld, the concurrent label-query service: a
// registry of labeled XML documents exposed over HTTP/JSON. It is the
// long-lived store the paper's Section 5.2 experiment presumes — labels live
// in a table, path queries are answered by label-predicate joins — turned
// into a network service that also absorbs the paper's dynamic updates
// (insert, wrap, delete) online and reports their relabeling cost.
//
// Concurrency model: each document carries its own sync.RWMutex. Queries
// and relation probes take the read lock — they are genuinely read-only,
// because an element table is safe for concurrent readers as soon as
// rdb.Build returns and the prime scheme fills its self-label cache
// eagerly — so any number of readers proceed in parallel. Updates take the
// write lock, mutate the labeling, patch or rebuild the element table and
// bump the document's generation; cached query results are tagged with the
// generation they were computed at, so a bump invalidates them lazily
// without sweeping the cache. The registry map has its own lock, held only
// for lookups and load/delete, never during query evaluation.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"primelabel/internal/labeling"
	"primelabel/internal/labeling/codec"
	"primelabel/internal/labeling/prime"
	"primelabel/internal/rdb"
	"primelabel/internal/server/api"
	"primelabel/internal/server/persist"
	"primelabel/internal/server/querystats"
	"primelabel/internal/server/trace"
	"primelabel/internal/xmlparse"
	"primelabel/internal/xmltree"
	"primelabel/internal/xpath"
)

// Errors the store maps to HTTP statuses.
var (
	// ErrUnknownDocument: no document with that name is loaded (404).
	ErrUnknownDocument = errors.New("server: unknown document")
	// ErrStaleGeneration: a conditional request named a generation the
	// document has moved past (409).
	ErrStaleGeneration = errors.New("server: stale generation")
	// ErrBadRequest wraps client-side validation failures (400).
	ErrBadRequest = errors.New("server: bad request")
	// ErrTimedOut: the request's context was done (deadline passed or
	// client gone) before the store started or published its work (503).
	ErrTimedOut = errors.New("request timed out")
)

// document is one hosted labeled document.
type document struct {
	mu    sync.RWMutex
	name  string
	lab   labeling.Labeling
	table *rdb.Table
	cache *queryCache
	gen   uint64
	// relabeled accumulates the labels written by every update applied to
	// this document — the paper's Figures 16–18 metric, observed online.
	relabeled uint64
	// fenceEpoch is the document's fencing epoch: bumped by every promotion
	// of this server (and adopted from replicated records), stamped onto
	// every journaled record, and persisted in snapshot meta. Followers use
	// it to reject streams from a deposed primary that resurrected with
	// stale state. Guarded by mu like gen.
	fenceEpoch uint64

	// journal is the document's update journal when persistence is enabled
	// and the scheme is persistable; nil otherwise. Appends happen inside
	// the write-lock critical section, which orders records consistently
	// with in-memory state.
	journal *persist.Journal
	// durable reports whether updates to this document are journaled.
	durable bool
	// sinceSnap counts journal records since the last snapshot; compaction
	// triggers when it reaches the store's snapshotEvery threshold.
	sinceSnap int
	// compacting serializes background snapshot compactions.
	compacting atomic.Bool

	// noPatch forces the full-rebuild reindex path even for ops the
	// incremental patch path could handle. Benchmark/test-only: set before
	// the document serves traffic, never flipped at runtime.
	noPatch bool
}

// Store is the document registry.
type Store struct {
	mu      sync.RWMutex
	docs    map[string]*document
	metrics *Metrics
	// logger receives structured records for store-level events that are
	// not tied to a request's response (journal failures, compaction
	// errors). Never nil; defaults to a discarding logger.
	logger *slog.Logger
	// cacheCap is the per-document query cache capacity.
	cacheCap int
	// persist, when non-nil, is the durability layer every persistable
	// document writes through. See durability.go.
	persist *persist.Manager
	// snapshotEvery is the journal-records-per-snapshot compaction
	// threshold.
	snapshotEvery int
	// querystats is the pg_stat_statements-style registry every query is
	// folded into under its normalized shape; see internal/server/querystats.
	querystats *querystats.Registry
}

// NewStore returns an empty registry reporting into metrics. cacheCap is
// the per-document LRU capacity (<= 0 disables query caching).
func NewStore(metrics *Metrics, cacheCap int) *Store {
	return &Store{
		docs:       make(map[string]*document),
		metrics:    metrics,
		logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		cacheCap:   cacheCap,
		querystats: querystats.New(0),
	}
}

// SetLogger directs the store's structured log output. Call before the
// store starts serving; it is not safe to swap the logger concurrently
// with requests. A nil logger restores the discarding default.
func (s *Store) SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.logger = l
}

// buildScheme materializes the labeling scheme a load request asks for
// from the scheme registry. The request carries no layer height, so
// prime-decomposed gets its default.
func buildScheme(req api.LoadRequest) (labeling.Scheme, error) {
	s, ok := codec.NewScheme(req.Scheme, codec.Options{
		Prime: prime.Options{
			ReservedPrimes:   req.ReservedPrimes,
			PowerOfTwoLeaves: req.PowerOfTwoLeaves,
			Power2Threshold:  req.Power2Threshold,
			TrackOrder:       req.TrackOrder,
			SCChunk:          req.SCChunk,
			OrderSpacing:     req.OrderSpacing,
			RecyclePrimes:    req.RecyclePrimes,
		},
		OrderPreserving: req.OrderPreserving,
	})
	if !ok {
		return nil, fmt.Errorf("%w: unknown scheme %q", ErrBadRequest, req.Scheme)
	}
	return s, nil
}

// newTable builds the element table labeld serves a labeling through, on
// the extent planner — the only one labeld runs (rdb.Build's zero plan is
// the nested loop). Every table the store builds comes from here.
func newTable(lab labeling.Labeling) *rdb.Table {
	t := rdb.Build(lab)
	t.Plan = rdb.Extent
	return t
}

// Load parses, labels and indexes a document, replacing any existing
// document with the same name. Replacement resets the generation counter:
// conditional requests against the old instance fail with a stale
// generation, which is the intended signal. A ctx done after the parse,
// label or index step returns ErrTimedOut with nothing published. A trace
// carried by ctx records parse, label, index and (on a durable server)
// snapshot_write spans.
func (s *Store) Load(ctx context.Context, name string, req api.LoadRequest) (api.DocInfo, error) {
	if name == "" || strings.ContainsAny(name, "/ ") {
		return api.DocInfo{}, fmt.Errorf("%w: document name must be non-empty without '/' or spaces", ErrBadRequest)
	}
	if req.XML == "" {
		return api.DocInfo{}, fmt.Errorf("%w: empty xml", ErrBadRequest)
	}
	scheme, err := buildScheme(req)
	if err != nil {
		return api.DocInfo{}, err
	}
	endParse := trace.Start(ctx, trace.StageParse)
	tree, err := xmlparse.ParseDocument(strings.NewReader(req.XML), xmlparse.Options{})
	endParse()
	if err != nil {
		return api.DocInfo{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if ctx.Err() != nil {
		return api.DocInfo{}, ErrTimedOut
	}
	endLabel := trace.Start(ctx, trace.StageLabel)
	lab, err := scheme.Label(tree)
	endLabel()
	if err != nil {
		return api.DocInfo{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if ctx.Err() != nil {
		return api.DocInfo{}, ErrTimedOut
	}
	endIndex := trace.Start(ctx, trace.StageIndex)
	d := s.newDocument(name, lab, persist.Meta{})
	endIndex()
	if ctx.Err() != nil {
		return api.DocInfo{}, ErrTimedOut
	}
	// The replaced instance, if any, stops journaling here, before the new
	// one takes over the on-disk files.
	s.swap(name, d)
	if s.persist != nil {
		if !codec.Supported(lab) {
			// Hosted non-durable; clear any persisted state from a previous
			// durable instance so recovery cannot resurrect it.
			if err := s.persist.Remove(name); err != nil {
				s.metrics.persistErrors.Add(1)
			}
		} else if err := s.makeDurable(ctx, d); err != nil {
			s.metrics.persistErrors.Add(1)
			return api.DocInfo{}, fmt.Errorf("server: document %q loaded but not durable: %v", name, err)
		}
	}
	d.mu.RLock()
	info := d.info()
	d.mu.RUnlock()
	return info, nil
}

// newDocument builds an unpublished document serving lab, with its element
// table, at the generation, relabel count and fencing epoch meta records
// (all zero for a fresh load). Every document the store hosts comes from
// here.
func (s *Store) newDocument(name string, lab labeling.Labeling, meta persist.Meta) *document {
	return &document{
		name:       name,
		lab:        lab,
		table:      newTable(lab),
		cache:      newQueryCache(s.cacheCap),
		gen:        meta.Generation,
		relabeled:  meta.Relabeled,
		fenceEpoch: meta.FenceEpoch,
	}
}

// swap publishes d under name, or unpublishes name when d is nil, and
// returns the document it replaced (nil if none). The labeld_documents
// gauge follows the registry's size, and the replaced document's journal is
// retired and closed, so it can no longer write to files its successor
// owns; requests already holding it finish against it. swap is the only
// code that changes the registry.
func (s *Store) swap(name string, d *document) *document {
	s.mu.Lock()
	old := s.docs[name]
	if d != nil {
		s.docs[name] = d
	} else {
		delete(s.docs, name)
	}
	s.metrics.documents.Store(int64(len(s.docs)))
	s.mu.Unlock()
	if old != nil {
		if j := retire(old); j != nil {
			j.Close()
		}
	}
	return old
}

// get looks a document up.
func (s *Store) get(name string) (*document, error) {
	s.mu.RLock()
	d, ok := s.docs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDocument, name)
	}
	return d, nil
}

// Delete removes a document from the registry along with its persisted
// state. In-flight requests holding the old document finish against it; new
// requests see 404.
func (s *Store) Delete(ctx context.Context, name string) error {
	if s.swap(name, nil) == nil {
		return fmt.Errorf("%w: %q", ErrUnknownDocument, name)
	}
	if s.persist != nil {
		if err := s.persist.Remove(name); err != nil {
			s.metrics.persistErrors.Add(1)
		}
	}
	return nil
}

// List describes every hosted document, sorted by name.
func (s *Store) List() []api.DocInfo {
	s.mu.RLock()
	docs := make([]*document, 0, len(s.docs))
	for _, d := range s.docs {
		docs = append(docs, d)
	}
	s.mu.RUnlock()
	out := make([]api.DocInfo, 0, len(docs))
	for _, d := range docs {
		d.mu.RLock()
		out = append(out, d.info())
		d.mu.RUnlock()
	}
	// Registry iteration order is random; stable output is friendlier to
	// clients and tests.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Count returns the number of hosted documents.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// Info describes one document.
func (s *Store) Info(name string) (api.DocInfo, error) {
	d, err := s.get(name)
	if err != nil {
		return api.DocInfo{}, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.info(), nil
}

// info snapshots the document's description. Callers hold d.mu (either
// mode), except during Load where the document is not yet published.
func (d *document) info() api.DocInfo {
	return api.DocInfo{
		Name:         d.name,
		Scheme:       d.lab.SchemeName(),
		Elements:     d.table.Len(),
		MaxLabelBits: d.lab.MaxLabelBits(),
		Generation:   d.gen,
		Relabeled:    d.relabeled,
		Durable:      d.durable,
	}
}

// Query evaluates an XPath-subset expression under the document's read
// lock, consulting the per-document LRU first (entries computed at an
// older generation are treated as misses). A trace carried by ctx records
// lock_wait, cache_lookup, and (on a miss) xpath_eval and materialize
// spans. Every call is also folded into the query-stats registry under the
// query's normalized shape.
func (s *Store) Query(ctx context.Context, name, query string) (*api.QueryResponse, error) {
	return s.query(ctx, name, query, false)
}

// QueryExplain is Query with profiling: the response additionally carries a
// QueryExplain describing the planner choice (cache hit, serving scheme),
// per-step candidate/emitted counts and join plans, label-bit stats, and
// the request's per-stage timings. The node set is exactly what Query
// would return.
func (s *Store) QueryExplain(ctx context.Context, name, query string) (*api.QueryResponse, error) {
	return s.query(ctx, name, query, true)
}

// query is the shared body of Query and QueryExplain.
func (s *Store) query(ctx context.Context, name, query string, explain bool) (*api.QueryResponse, error) {
	r, err := s.beginRead(ctx, name, query, explain, nil, query)
	if err != nil {
		return nil, err
	}
	d := r.d
	defer d.mu.RUnlock()
	if r.hit != nil {
		resp := *r.hit
		resp.Cached = true
		resp.Explain = s.finishRead(ctx, &r)
		return &resp, nil
	}
	endMaterialize := trace.Start(ctx, trace.StageMaterialize)
	resp := &api.QueryResponse{
		Generation: d.gen,
		Count:      len(r.rows),
		Nodes:      d.nodeRefs(r.rows),
	}
	endMaterialize()
	d.cache.put(query, d.gen, r.shape, resp)
	if profile := s.finishRead(ctx, &r); profile != nil {
		// The cache holds the profile-free response; the profiled copy is
		// this request's alone.
		out := *resp
		out.Explain = profile
		return &out, nil
	}
	return resp, nil
}

// queryRead is one query's pass through the read path the query
// terminals share (see beginRead).
type queryRead struct {
	d    *document
	name string
	// shape is the query's query-stats shape, read from the cache entry on
	// a hit; a miss parses the query once for both shape and evaluation.
	shape   string
	explain bool
	start   time.Time
	// hit is the cache entry that answered the query; nil on a miss.
	hit *api.QueryResponse
	// rows are the evaluated rows of a miss.
	rows rdb.RowSet
	// profile is a miss's planner profile (with per-step detail when
	// explain is set), an explained hit's cache-hit stub, or nil on an
	// unexplained hit.
	profile *api.QueryExplain
}

// beginRead is the read path every query terminal shares. It counts the
// query (and, when non-nil, the terminal's own mode counter), takes the
// document's read lock (lock_wait span) and looks the query up in the
// cache under each of keys in turn (cache_lookup span) — one cache hit or
// one miss per query, however many keys it probes. On a miss it parses and
// evaluates the query (xpath_eval span) and builds the planner profile; a
// parse or evaluation error is recorded into query stats and returned. A
// ctx that is done once the lock is taken returns ErrTimedOut; so does one
// done once evaluation ends, after query stats record the call as failed
// with its profile. Unless it returns an error, beginRead returns with
// r.d.mu read-locked: the caller serves the answer, calls finishRead, and
// unlocks.
func (s *Store) beginRead(ctx context.Context, name, query string, explain bool, mode *atomic.Uint64, keys ...string) (queryRead, error) {
	if query == "" {
		return queryRead{}, fmt.Errorf("%w: empty xpath", ErrBadRequest)
	}
	d, err := s.get(name)
	if err != nil {
		return queryRead{}, err
	}
	r := queryRead{d: d, name: name, explain: explain, start: time.Now()}
	s.metrics.queries.Add(1)
	if mode != nil {
		mode.Add(1)
	}
	endLock := trace.Start(ctx, trace.StageLockWait)
	d.mu.RLock()
	endLock()
	if ctx.Err() != nil {
		d.mu.RUnlock()
		return queryRead{}, ErrTimedOut
	}
	endCache := trace.Start(ctx, trace.StageCacheLookup)
	r.hit, r.shape = d.cache.get(d.gen, keys...)
	endCache()
	if r.hit != nil {
		s.metrics.cacheHits.Add(1)
		if explain {
			r.profile = &api.QueryExplain{
				Shape:    r.shape,
				CacheHit: true,
				Backend:  d.lab.SchemeName(),
			}
		}
		return r, nil
	}
	s.metrics.cacheMisses.Add(1)
	var ex *rdb.Explain
	if explain {
		ex = &rdb.Explain{}
	}
	endEval := trace.Start(ctx, trace.StageXPathEval)
	var stats rdb.ExecStats
	q, err := xpath.Parse(query)
	r.shape = query
	if err == nil {
		r.shape = q.Shape()
		r.rows, stats, err = d.table.ExecPathExplain(q, ex)
	}
	endEval()
	if err != nil {
		d.mu.RUnlock()
		s.querystats.Record(querystats.Sample{
			Doc: name, Shape: r.shape, Latency: time.Since(r.start), Err: true,
		})
		return queryRead{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// Every miss carries the planner summary (the query-stats registry
	// attaches it to a shape's slowest call); step detail only when the
	// caller asked for explain.
	r.profile = &api.QueryExplain{
		Shape:        r.shape,
		Backend:      d.lab.SchemeName(),
		Candidates:   stats.Candidates,
		MaxLabelBits: d.lab.MaxLabelBits(),
	}
	if explain {
		r.profile.Steps = explainSteps(ex)
	}
	if ctx.Err() != nil {
		// The evaluation outlasted the deadline: query stats count the
		// call as failed and keep its profile, so the slow shape shows.
		d.mu.RUnlock()
		s.querystats.Record(querystats.Sample{
			Doc: name, Shape: r.shape, Latency: time.Since(r.start),
			Candidates: stats.Candidates, Err: true, Profile: r.profile,
		})
		return queryRead{}, ErrTimedOut
	}
	return r, nil
}

// finishRead folds the read into query stats, with its latency from entry
// to now, and returns the profile for the response: nil unless explain was
// requested, else stamped with the stages the request's trace has
// completed so far.
func (s *Store) finishRead(ctx context.Context, r *queryRead) *api.QueryExplain {
	sample := querystats.Sample{Doc: r.name, Shape: r.shape, CacheHit: r.hit != nil}
	if r.hit == nil {
		sample.Candidates = r.profile.Candidates
		sample.Profile = r.profile
	}
	var out *api.QueryExplain
	if r.explain {
		r.profile.Stages = explainStages(ctx)
		out = r.profile
	}
	sample.Latency = time.Since(r.start)
	s.querystats.Record(sample)
	return out
}

// nodeRefs materializes rows as response node refs: path, label and text
// for every row. Callers hold d.mu.
func (d *document) nodeRefs(rows rdb.RowSet) []api.NodeRef {
	out := make([]api.NodeRef, len(rows))
	for i, id := range rows {
		n := d.table.Node(id)
		out[i] = api.NodeRef{
			ID:    id,
			Path:  xmltree.PathTo(n),
			Label: codec.LabelString(d.lab, n),
			Text:  n.Text(),
		}
	}
	return out
}

// node resolves a document-order id under the caller-held lock.
func (d *document) node(id int) (*xmltree.Node, error) {
	if id < 0 || id >= d.table.Len() {
		return nil, fmt.Errorf("%w: node id %d out of range [0,%d)", ErrBadRequest, id, d.table.Len())
	}
	return d.table.Node(id), nil
}

// checkGeneration enforces a conditional request's generation pin.
func (d *document) checkGeneration(want *uint64) error {
	if want != nil && *want != d.gen {
		return fmt.Errorf("%w: have %d, request pinned %d", ErrStaleGeneration, d.gen, *want)
	}
	return nil
}

// Relation answers an ancestor/parent/before probe from the element
// table's structural columns. Node ids are row ids, so a is a proper
// ancestor of b iff a < b <= Extent(a), the parent additionally sits one
// level above b, and on an ordered table a precedes b iff a < b — integer
// comparisons, whatever the scheme's label arithmetic. A table without
// order (a scheme without order support) asks the labeling's Before, so
// such a probe fails exactly as that scheme does. A trace carried by ctx
// records lock_wait and label_probe spans; the probe's latency feeds
// labeld_probe_duration_seconds.
func (s *Store) Relation(ctx context.Context, name string, req api.RelationRequest) (api.RelationResponse, error) {
	d, err := s.get(name)
	if err != nil {
		return api.RelationResponse{}, err
	}
	endLock := trace.Start(ctx, trace.StageLockWait)
	d.mu.RLock()
	endLock()
	defer d.mu.RUnlock()
	if ctx.Err() != nil {
		return api.RelationResponse{}, ErrTimedOut
	}
	if err := d.checkGeneration(req.Generation); err != nil {
		return api.RelationResponse{}, err
	}
	an, err := d.node(req.A)
	if err != nil {
		return api.RelationResponse{}, err
	}
	bn, err := d.node(req.B)
	if err != nil {
		return api.RelationResponse{}, err
	}
	endProbe := trace.Start(ctx, trace.StageLabelProbe)
	defer endProbe()
	probeStart := time.Now()
	t, a, b := d.table, req.A, req.B
	var result bool
	switch req.Kind {
	case api.RelAncestor:
		result = a < b && b <= t.Extent(a)
	case api.RelParent:
		result = a < b && b <= t.Extent(a) && t.Depth(b) == t.Depth(a)+1
	case api.RelBefore:
		if t.Ordered() {
			result = a < b
		} else if result, err = d.lab.Before(an, bn); err != nil {
			return api.RelationResponse{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	default:
		return api.RelationResponse{}, fmt.Errorf("%w: unknown relation %q", ErrBadRequest, req.Kind)
	}
	s.metrics.probe.Observe(time.Since(probeStart))
	return api.RelationResponse{Generation: d.gen, Result: result}, nil
}

// applyOp performs one update's mutation against the labeling. It returns
// the relabel count, the node the op placed or removed (the inserted
// element or wrapper; the deleted subtree's root), whether the operation
// reached the labeling (validation failures do not, and must not be
// journaled), and the labeling error if any. A labeling error with
// applied=true means state may have mutated partway — the caller must still
// reindex. Callers hold the write lock. Replay during recovery runs the
// same code path, which is what makes journal replay reproduce live
// behavior exactly.
func (d *document) applyOp(req api.UpdateRequest) (count int, n *xmltree.Node, applied bool, err error) {
	switch req.Op {
	case api.OpInsert:
		if req.Tag == "" {
			return 0, nil, false, fmt.Errorf("%w: insert needs a tag", ErrBadRequest)
		}
		parent, nerr := d.node(req.Parent)
		if nerr != nil {
			return 0, nil, false, nerr
		}
		if req.Index < 0 {
			return 0, nil, false, fmt.Errorf("%w: negative index", ErrBadRequest)
		}
		n = xmltree.NewElement(req.Tag)
		count, err = d.lab.InsertChildAt(parent, parent.RawChildIndex(req.Index), n)
		return count, n, true, err
	case api.OpWrap:
		if req.Tag == "" {
			return 0, nil, false, fmt.Errorf("%w: wrap needs a tag", ErrBadRequest)
		}
		target, nerr := d.node(req.Target)
		if nerr != nil {
			return 0, nil, false, nerr
		}
		n = xmltree.NewElement(req.Tag)
		count, err = d.lab.WrapNode(target, n)
		return count, n, true, err
	case api.OpDelete:
		target, nerr := d.node(req.Target)
		if nerr != nil {
			return 0, nil, false, nerr
		}
		return 0, target, true, d.lab.Delete(target)
	default:
		return 0, nil, false, fmt.Errorf("%w: unknown op %q", ErrBadRequest, req.Op)
	}
}

// reindex completes one applied op's index maintenance under the write
// lock. It patches the element table in place (rdb.Table.Patch) for every
// scheme, and rebuilds it from the labeling only when the labeling returned
// opErr — state may have mutated partway — or the patch cannot place n, or
// d.noPatch is set. In both cases the generation advances — even for an op
// that failed after mutating state, so a half-applied mutation can never
// serve stale rows or stale node ids. Advancing the generation is also what
// invalidates the query cache: its entries are tagged with the generation
// they were computed at. Live updates, batches, recovery replay and replica
// apply all run applyOp then reindex.
func (d *document) reindex(req api.UpdateRequest, n *xmltree.Node, opErr error) (patched bool) {
	patched = opErr == nil && !d.noPatch && d.table.Patch(n, req.Op == api.OpDelete)
	if !patched {
		d.table = newTable(d.lab)
	}
	d.gen++
	return patched
}

// observeReindex records which reindex path an applied op took.
func (s *Store) observeReindex(patched bool) {
	if patched {
		s.metrics.reindexIncr.Add(1)
	} else {
		s.metrics.reindexFull.Add(1)
	}
}

// Update applies one dynamic update as a one-op UpdateBatch, with the
// request's generation pin moved onto the batch, and maps the op's result
// back. A labeling failure, which UpdateBatch reports in the op's result,
// comes back as an ErrBadRequest error carrying the labeling's text; the op
// was applied and journaled all the same. Generation, counter, journaling
// and trace semantics are UpdateBatch's.
func (s *Store) Update(ctx context.Context, name string, req api.UpdateRequest) (api.UpdateResponse, error) {
	batch := api.BatchUpdateRequest{Ops: []api.UpdateRequest{req}, Generation: req.Generation}
	batch.Ops[0].Generation = nil
	resp, err := s.UpdateBatch(ctx, name, batch)
	if err != nil {
		return api.UpdateResponse{}, err
	}
	res := resp.Results[0]
	if res.Error != "" {
		return api.UpdateResponse{}, fmt.Errorf("%w: %s", ErrBadRequest, res.Error)
	}
	return api.UpdateResponse{Generation: resp.Generation, Relabeled: res.Relabeled, Node: res.Node}, nil
}

// maxBatchOps caps the ops accepted in one batch request, bounding both the
// write-lock hold time and the size of the single journal record a batch
// becomes.
const maxBatchOps = 1024

// UpdateBatch applies a sequence of updates under one write-lock
// acquisition, then — on a durable document — appends one journal record
// for the whole batch under the lock and makes it stable after the lock is
// released, so concurrent writers to the same document coalesce onto one
// fsync (group commit). Ops apply in order against the state the previous
// op left; each op's labeling mutation is followed by its index
// maintenance, which patches the element table in place or rebuilds it.
// The batch stops at the first failure and earlier ops stay applied (the
// response's Failed field reports the stopping index). A journal failure
// fails the request and retires the journal, so recovery never replays
// past a hole.
//
// A batch whose ctx is done once it holds the write lock applies nothing
// and returns ErrTimedOut; a batch that starts runs to completion.
//
// Generation and counter semantics, per op: a validation failure (unknown
// op, bad node id, missing tag) mutates nothing and does not advance the
// generation — a client retrying with its pinned generation will not see a
// spurious conflict. When the first op fails validation the request fails
// outright. A labeling error after validation may have mutated state
// partway, so it advances the generation, is journaled with its failure
// flag and is reported in the op's result. labeld_updates_total counts
// only acknowledged successful ops (applied, journaled and — with fsync
// on — synced); every other outcome, once per request, lands in
// labeld_update_failures_total, except that a failed commit counts every
// attempted op.
//
// A trace carried by ctx records lock_wait, one relabel and one reindex
// span (the totals over the batch's ops) and — on a durable document —
// journal_append, journal_group_wait and journal_fsync spans, the
// breakdown that answers "why was this update slow?".
func (s *Store) UpdateBatch(ctx context.Context, name string, req api.BatchUpdateRequest) (api.BatchUpdateResponse, error) {
	if len(req.Ops) == 0 {
		return api.BatchUpdateResponse{}, fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	if len(req.Ops) > maxBatchOps {
		return api.BatchUpdateResponse{}, fmt.Errorf("%w: batch of %d ops exceeds the %d-op limit", ErrBadRequest, len(req.Ops), maxBatchOps)
	}
	for i, op := range req.Ops {
		if op.Generation != nil {
			return api.BatchUpdateResponse{}, fmt.Errorf("%w: op %d carries a generation pin; pin the batch instead", ErrBadRequest, i)
		}
	}
	d, err := s.get(name)
	if err != nil {
		return api.BatchUpdateResponse{}, err
	}
	resp, commit, succeeded, bail := s.updateBatchLocked(ctx, d, req)
	var commitErr error
	if commit != nil {
		commitErr = s.commitJournal(ctx, d, commit)
	}
	if bail != nil {
		// Nothing was acknowledged: a done context, generation-pin
		// conflict, first-op validation failure, or journal-append failure.
		s.metrics.updateFailures.Add(1)
		return api.BatchUpdateResponse{}, bail
	}
	if commitErr != nil {
		// The batch applied in memory but its durability is unknown; no op
		// is acknowledged.
		s.metrics.updateFailures.Add(uint64(len(resp.Results)))
		return api.BatchUpdateResponse{}, commitErr
	}
	s.metrics.updates.Add(uint64(succeeded))
	s.metrics.relabeled.Add(uint64(resp.Relabeled))
	if resp.Failed >= 0 {
		s.metrics.updateFailures.Add(1)
	}
	return resp, nil
}

// updateBatchLocked is UpdateBatch's write-lock critical section. It
// returns the response, the pending journal commit (nil when nothing was
// journaled), the number of fully successful ops, and a bail error for the
// no-op outcomes (a done ctx once the lock is taken, stale pin, first-op
// validation failure, journal-append failure) where the caller should
// surface a plain error instead of a batch response.
func (s *Store) updateBatchLocked(ctx context.Context, d *document, req api.BatchUpdateRequest) (api.BatchUpdateResponse, *pendingCommit, int, error) {
	endLock := trace.Start(ctx, trace.StageLockWait)
	d.mu.Lock()
	endLock()
	defer d.mu.Unlock()
	if ctx.Err() != nil {
		return api.BatchUpdateResponse{}, nil, 0, ErrTimedOut
	}
	if err := d.checkGeneration(req.Generation); err != nil {
		return api.BatchUpdateResponse{}, nil, 0, err
	}

	resp := api.BatchUpdateResponse{Failed: -1}
	var (
		ops       []persist.OpRecord
		touched   []*xmltree.Node
		succeeded int
		// relabel and reindex total the batch's per-op labeling mutations
		// and table patches or rebuilds, booked as one span each.
		relabel, reindex time.Duration
	)
	observe := func() {
		trace.Observe(ctx, trace.StageRelabel, relabel)
		trace.Observe(ctx, trace.StageReindex, reindex)
	}
	for i, op := range req.Ops {
		start := time.Now()
		count, n, applied, opErr := d.applyOp(op)
		applyEnd := time.Now()
		relabel += applyEnd.Sub(start)
		if !applied {
			if i == 0 {
				// Nothing in the batch touched the document; fail the
				// request outright.
				observe()
				return api.BatchUpdateResponse{}, nil, 0, opErr
			}
			resp.Failed = i
			resp.Results = append(resp.Results, api.BatchOpResult{Node: -1, Error: opErr.Error()})
			break
		}
		patched := d.reindex(op, n, opErr)
		reindex += time.Since(applyEnd)
		s.observeReindex(patched)
		d.relabeled += uint64(count)
		resp.Relabeled += count
		// UpdateBatch admits no per-op pin, so op goes to the journal as is.
		ops = append(ops, persist.OpRecord{Req: op, Count: count, Failed: opErr != nil})
		res := api.BatchOpResult{Relabeled: count, Node: -1}
		if opErr != nil {
			res.Error = opErr.Error()
			resp.Failed = i
			resp.Results = append(resp.Results, res)
			touched = append(touched, nil)
			break
		}
		succeeded++
		resp.Results = append(resp.Results, res)
		touched = append(touched, n)
	}
	observe()

	// Node ids are only meaningful in the final generation, so resolve them
	// after the whole batch has applied. A deleted node has no row.
	for i, n := range touched {
		if id, ok := d.table.RowOf(n); ok {
			resp.Results[i].Node = id
		}
	}
	resp.Generation = d.gen

	var commit *pendingCommit
	if d.journal != nil && len(ops) > 0 {
		rec := persist.NewRecord(d.gen, d.relabeled, ops)
		rec.TraceID, rec.Fence = trace.ID(ctx), d.fenceEpoch
		var err error
		if commit, err = s.journalAppendLocked(ctx, d, rec); err != nil {
			return api.BatchUpdateResponse{}, nil, 0, err
		}
	}
	return resp, commit, succeeded, nil
}
