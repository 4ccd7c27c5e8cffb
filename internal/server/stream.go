package server

// Materialization-skipping query terminals: count/exists modes that never
// build node refs, and chunked NDJSON streaming that delivers the first
// bytes before materialization starts. Both share Store.query's read path
// (beginRead/finishRead: locking, caching, evaluation and accounting) —
// only the terminal differs, which is the point: on a 12k-row result the
// node-ref loop (paths, labels, text) dominates evaluation, so skipping or
// chunking it is where the latency goes.

import (
	"context"
	"fmt"

	"primelabel/internal/server/api"
	"primelabel/internal/server/trace"
)

// countCacheKey is the query-cache slot for a query's materialization-free
// answer. The "\x00" prefix cannot collide with a cacheable query: a query
// starting with NUL fails the parser, so no full result is ever stored
// under it.
func countCacheKey(query string) string { return "\x00c:" + query }

// streamChunkSize is the node count per streamed NDJSON chunk. Small enough
// that the first chunk leaves long before a 12k-row materialization would
// finish, large enough that encoder and flush overhead stay negligible.
const streamChunkSize = 256

// QueryMode evaluates a query under the requested terminal mode: nodes (the
// empty mode) behaves exactly like Query/QueryExplain, count and exists
// skip node materialization entirely.
func (s *Store) QueryMode(ctx context.Context, name, query, mode string, explain bool) (*api.QueryResponse, error) {
	switch mode {
	case api.QueryModeNodes:
		return s.query(ctx, name, query, explain)
	case api.QueryModeCount, api.QueryModeExists:
		return s.queryFast(ctx, name, query, mode, explain)
	default:
		return nil, fmt.Errorf("%w: unknown query mode %q", ErrBadRequest, mode)
	}
}

// modeResponse shapes a count/exists answer: never any nodes.
func modeResponse(gen uint64, count int, mode string) *api.QueryResponse {
	resp := &api.QueryResponse{Generation: gen, Count: count}
	if mode == api.QueryModeExists {
		exists := count > 0
		resp.Exists = &exists
	}
	return resp
}

// queryFast is the count/exists terminal. It answers from the full cache
// entry when one exists, else from the dedicated count slot, and on a miss
// evaluates rows without ever building a NodeRef. The count slot is filled
// on miss, so repeated count() polling of a large result costs one
// evaluation per generation and zero materializations ever.
func (s *Store) queryFast(ctx context.Context, name, query, mode string, explain bool) (*api.QueryResponse, error) {
	r, err := s.beginRead(ctx, name, query, explain, &s.metrics.queryCountMode, query, countCacheKey(query))
	if err != nil {
		return nil, err
	}
	d := r.d
	defer d.mu.RUnlock()
	count := len(r.rows)
	if r.hit != nil {
		count = r.hit.Count
	} else {
		d.cache.put(countCacheKey(query), d.gen, r.shape, &api.QueryResponse{Generation: d.gen, Count: count})
	}
	resp := modeResponse(d.gen, count, mode)
	resp.Cached = r.hit != nil
	resp.Explain = s.finishRead(ctx, &r)
	return resp, nil
}

// QueryStream evaluates a query and delivers the result through emit: first
// an api.StreamHeader (generation and total count, before any node ref
// exists), then api.StreamChunk batches of streamChunkSize nodes
// materialized on demand, then a final chunk with Done set (carrying the
// execution profile when explain is set). The document's read lock is held
// for the whole delivery — the same window a materialize-everything query
// holds it, since both walk the tree for paths and text; a slow consumer
// extends it, which is the streaming trade-off.
//
// An error before the first emit call is returned with nothing emitted
// (callers can still write a clean HTTP error); once emit has been called
// the stream is committed and a later error only aborts it. The trace's
// stream_first_byte span covers entry to just after the header emit, and
// stream_write the materialize-and-emit loop after it.
func (s *Store) QueryStream(ctx context.Context, name, query string, explain bool, emit func(v any) error) error {
	endFirst := trace.Start(ctx, trace.StageStreamFirstByte)
	firstEnded := false
	finishFirst := func() {
		if !firstEnded {
			firstEnded = true
			endFirst()
		}
	}
	defer finishFirst()
	r, err := s.beginRead(ctx, name, query, explain, &s.metrics.queryStreamed, query)
	if err != nil {
		return err
	}
	d := r.d
	defer d.mu.RUnlock()
	count := len(r.rows)
	if r.hit != nil {
		count = r.hit.Count
	}
	if err := emit(api.StreamHeader{Generation: d.gen, Count: count, Cached: r.hit != nil}); err != nil {
		return err
	}
	finishFirst()

	endWrite := trace.Start(ctx, trace.StageStreamWrite)
	for base := 0; base < count; base += streamChunkSize {
		end := base + streamChunkSize
		if end > count {
			end = count
		}
		var nodes []api.NodeRef
		if r.hit != nil {
			nodes = r.hit.Nodes[base:end]
		} else {
			nodes = d.nodeRefs(r.rows[base:end])
		}
		if err := emit(api.StreamChunk{Nodes: nodes}); err != nil {
			endWrite()
			return err
		}
	}
	endWrite()

	if r.profile != nil {
		r.profile.Streamed = true
	}
	return emit(api.StreamChunk{Done: true, Explain: s.finishRead(ctx, &r)})
}
