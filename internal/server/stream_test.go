package server

// Tests for the materialization-skipping query terminals: count/exists
// modes, the chunked streaming terminal, the NDJSON endpoint, and a -race
// stress run interleaving both fast paths with batched updates on both
// reindex paths.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"primelabel/internal/server/api"
	"primelabel/internal/server/client"
	"primelabel/internal/server/trace"
)

func TestQueryModeCountExists(t *testing.T) {
	ctx := context.Background()
	st := NewStore(NewMetrics(), 16)
	if _, err := st.Load(ctx, "books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	full, err := st.Query(ctx, "books", "//book")
	if err != nil {
		t.Fatal(err)
	}

	cnt, err := st.QueryMode(ctx, "books", "//book", api.QueryModeCount, false)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Count != full.Count || len(cnt.Nodes) != 0 || cnt.Exists != nil {
		t.Fatalf("count mode: %+v, want count %d with no nodes and no exists", cnt, full.Count)
	}
	if cnt.Generation != full.Generation {
		t.Fatalf("count generation %d, want %d", cnt.Generation, full.Generation)
	}

	ex, err := st.QueryMode(ctx, "books", "//book", api.QueryModeExists, false)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Exists == nil || !*ex.Exists {
		t.Fatalf("exists mode on non-empty result: %+v", ex)
	}
	ex, err = st.QueryMode(ctx, "books", "//nosuchtag", api.QueryModeExists, false)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Exists == nil || *ex.Exists || ex.Count != 0 {
		t.Fatalf("exists mode on empty result: %+v", ex)
	}

	if _, err := st.QueryMode(ctx, "books", "//book", "median", false); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown mode error = %v, want ErrBadRequest", err)
	}
	if _, err := st.QueryMode(ctx, "books", "", api.QueryModeCount, false); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty query error = %v, want ErrBadRequest", err)
	}

	// Explain in count mode reports the planner profile without nodes.
	cnt, err = st.QueryMode(ctx, "books", "//shelf//book", api.QueryModeCount, true)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Explain == nil || len(cnt.Explain.Steps) == 0 {
		t.Fatalf("count explain missing: %+v", cnt.Explain)
	}
	for _, s := range cnt.Explain.Steps {
		if s.JoinPlan == "" {
			t.Errorf("step %s::%s missing join_plan", s.Axis, s.Name)
		}
	}
}

// TestQueryModeCountCache pins the cache interplay: a count answer fills the
// dedicated count slot (second count is a hit), a full query's cache entry
// also answers later counts, and an update invalidates both.
func TestQueryModeCountCache(t *testing.T) {
	ctx := context.Background()
	st := NewStore(NewMetrics(), 16)
	if _, err := st.Load(ctx, "books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}

	misses0 := st.metrics.cacheMisses.Load()
	if _, err := st.QueryMode(ctx, "books", "//book", api.QueryModeCount, false); err != nil {
		t.Fatal(err)
	}
	if got := st.metrics.cacheMisses.Load() - misses0; got != 1 {
		t.Fatalf("first count: %d cache misses, want 1", got)
	}
	hits0 := st.metrics.cacheHits.Load()
	r2, err := st.QueryMode(ctx, "books", "//book", api.QueryModeCount, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.metrics.cacheHits.Load()-hits0 != 1 || !r2.Cached {
		t.Fatalf("second count not served from the count slot: cached=%v", r2.Cached)
	}

	// A full query under the same text has its own slot...
	full, err := st.Query(ctx, "books", "//title")
	if err != nil {
		t.Fatal(err)
	}
	// ...and that full entry answers a later count without re-evaluating.
	hits0 = st.metrics.cacheHits.Load()
	cnt, err := st.QueryMode(ctx, "books", "//title", api.QueryModeCount, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.metrics.cacheHits.Load()-hits0 != 1 || cnt.Count != full.Count {
		t.Fatalf("count after full query: hit delta %d, count %d (want %d)",
			st.metrics.cacheHits.Load()-hits0, cnt.Count, full.Count)
	}
	if st.metrics.queryCountMode.Load() == 0 {
		t.Fatal("count-mode metric never incremented")
	}

	// A write bumps the generation: the stale count slot must not answer.
	d, err := st.get("books")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Update(ctx, "books", api.UpdateRequest{Op: api.OpInsert, Parent: lastShelf(t, st, "books"), Index: 1 << 30, Tag: "book"}); err != nil {
		t.Fatal(err)
	}
	cnt, err = st.QueryMode(ctx, "books", "//book", api.QueryModeCount, false)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Cached {
		t.Fatal("count served from a stale generation's cache slot")
	}
	if cnt.Generation != d.gen {
		t.Fatalf("count generation %d, want %d", cnt.Generation, d.gen)
	}
}

// collectStream drains Store.QueryStream into its header and chunk parts.
func collectStream(t testing.TB, st *Store, name, query string, explain bool) (api.StreamHeader, []api.NodeRef, *api.QueryExplain) {
	t.Helper()
	var header api.StreamHeader
	var nodes []api.NodeRef
	var profile *api.QueryExplain
	gotHeader, done := false, false
	err := st.QueryStream(context.Background(), name, query, explain, func(v any) error {
		switch m := v.(type) {
		case api.StreamHeader:
			header, gotHeader = m, true
		case api.StreamChunk:
			if m.Done {
				done, profile = true, m.Explain
			} else {
				nodes = append(nodes, m.Nodes...)
			}
		default:
			return fmt.Errorf("unexpected stream value %T", v)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("QueryStream(%s): %v", query, err)
	}
	if !gotHeader || !done {
		t.Fatalf("stream missing header (%v) or done chunk (%v)", gotHeader, done)
	}
	return header, nodes, profile
}

func TestQueryStreamMatchesQuery(t *testing.T) {
	ctx := context.Background()
	st := NewStore(NewMetrics(), 16)
	if _, err := st.Load(ctx, "books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	full, err := st.Query(ctx, "books", "//shelf//book")
	if err != nil {
		t.Fatal(err)
	}

	// Cache hit path first: the full query above populated the slot.
	header, nodes, _ := collectStream(t, st, "books", "//shelf//book", false)
	if !header.Cached {
		t.Fatal("stream after identical full query did not report cached")
	}
	if header.Count != full.Count || len(nodes) != len(full.Nodes) {
		t.Fatalf("cached stream: header count %d nodes %d, want %d", header.Count, len(nodes), full.Count)
	}
	for i, n := range nodes {
		if n != full.Nodes[i] {
			t.Fatalf("cached stream node %d = %+v, want %+v", i, n, full.Nodes[i])
		}
	}

	// Miss path with explain: a fresh store so nothing is cached.
	st2 := NewStore(NewMetrics(), 0)
	if _, err := st2.Load(ctx, "books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	header, nodes, profile := collectStream(t, st2, "books", "//shelf//book", true)
	if header.Cached {
		t.Fatal("cache-disabled stream reported cached")
	}
	if len(nodes) != len(full.Nodes) {
		t.Fatalf("streamed %d nodes, want %d", len(nodes), len(full.Nodes))
	}
	for i, n := range nodes {
		if n != full.Nodes[i] {
			t.Fatalf("stream node %d = %+v, want %+v", i, n, full.Nodes[i])
		}
	}
	if profile == nil || !profile.Streamed || len(profile.Steps) == 0 {
		t.Fatalf("final chunk explain = %+v, want streamed profile with steps", profile)
	}
	for _, s := range profile.Steps {
		if s.JoinPlan == "" {
			t.Errorf("streamed step %s::%s missing join_plan", s.Axis, s.Name)
		}
	}
	if st2.metrics.queryStreamed.Load() == 0 {
		t.Fatal("streamed metric never incremented")
	}

	// Errors surface before any emit.
	if err := st2.QueryStream(ctx, "books", "///", false, func(any) error {
		t.Fatal("emit called for an invalid query")
		return nil
	}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("invalid query error = %v, want ErrBadRequest", err)
	}
}

// TestQueryStreamFirstByteTrace is the issue's streaming acceptance check on
// the 12k-element fixture: the stream_first_byte span (entry to header emit)
// must close before the stream_write span (the materialize-and-emit loop)
// opens, proving the first bytes leave before node materialization starts —
// and the result is large enough that many chunks follow the header.
func TestQueryStreamFirstByteTrace(t *testing.T) {
	st := NewStore(NewMetrics(), 0)
	if _, err := st.Load(context.Background(), "bench", api.LoadRequest{
		XML: deepXML(8, 20, 74), TrackOrder: true,
	}); err != nil {
		t.Fatal(err)
	}
	tr := trace.New("stream-accept", "query_stream")
	ctx := trace.NewContext(context.Background(), tr)

	var headerAt time.Time
	chunks := 0
	err := st.QueryStream(ctx, "bench", "//c//l", false, func(v any) error {
		switch m := v.(type) {
		case api.StreamHeader:
			headerAt = time.Now()
			if m.Count < 10_000 {
				t.Fatalf("fixture too small: %d rows", m.Count)
			}
		case api.StreamChunk:
			if !m.Done {
				chunks++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	doneAt := time.Now()
	if chunks < 2 {
		t.Fatalf("stream delivered %d chunks, want several", chunks)
	}
	if !headerAt.Before(doneAt) {
		t.Fatal("header did not precede stream completion")
	}

	var first, write *trace.Span
	for i, sp := range tr.Spans() {
		switch sp.Stage {
		case trace.StageStreamFirstByte:
			first = &tr.Spans()[i]
		case trace.StageStreamWrite:
			write = &tr.Spans()[i]
		}
	}
	if first == nil || write == nil {
		t.Fatalf("missing stream spans in trace: %+v", tr.Spans())
	}
	if firstEnd := first.Offset + first.Duration; firstEnd > write.Offset {
		t.Fatalf("stream_first_byte ended at %v, after stream_write began at %v — header did not beat materialization",
			firstEnd, write.Offset)
	}
}

// TestQueryStreamEndpoint exercises the wire format end to end: the NDJSON
// endpoint through the Go client, raw NDJSON framing, the mode rejection,
// and the count/exists client calls over HTTP.
func TestQueryStreamEndpoint(t *testing.T) {
	srv, err := New(Config{RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	c := client.New("http://"+addr, nil)
	loadSample(t, c, "books")

	full, err := c.Query("books", "//book")
	if err != nil {
		t.Fatal(err)
	}

	var nodes []api.NodeRef
	header, err := c.QueryStream("books", "//book", func(ch api.StreamChunk) error {
		nodes = append(nodes, ch.Nodes...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if header.Count != full.Count || len(nodes) != len(full.Nodes) {
		t.Fatalf("streamed header %d / %d nodes, want %d", header.Count, len(nodes), full.Count)
	}
	for i, n := range nodes {
		if n != full.Nodes[i] {
			t.Fatalf("streamed node %d = %+v, want %+v", i, n, full.Nodes[i])
		}
	}

	// Count and exists over HTTP.
	cnt, err := c.QueryCount("books", "//book")
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Count != full.Count || len(cnt.Nodes) != 0 {
		t.Fatalf("QueryCount = %+v, want count %d, no nodes", cnt, full.Count)
	}
	ok, err := c.QueryExists("books", "//nosuchtag")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("QueryExists(//nosuchtag) = true")
	}

	// Raw framing: one JSON object per line, header first, Done last.
	body, _ := json.Marshal(api.QueryRequest{XPath: "//book"})
	resp, err := http.Post("http://"+addr+"/docs/books/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("stream emitted %d lines, want header + chunks", len(lines))
	}
	var h api.StreamHeader
	if err := json.Unmarshal([]byte(lines[0]), &h); err != nil || h.Count != full.Count {
		t.Fatalf("header line %q: %v (count %d, want %d)", lines[0], err, h.Count, full.Count)
	}
	var last api.StreamChunk
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !last.Done {
		t.Fatalf("final line %q: %v (done=%v)", lines[len(lines)-1], err, last.Done)
	}

	// The stream endpoint serves nodes only: a mode in the body is a 400.
	body, _ = json.Marshal(api.QueryRequest{XPath: "//book", Mode: api.QueryModeCount})
	resp2, err := http.Post("http://"+addr+"/docs/books/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("stream with mode: status %d, want 400", resp2.StatusCode)
	}
}

// TestStreamAndCountDuringBatchedUpdates races the two new terminals —
// streamed delivery and count mode — against batched updates on both reindex
// paths (incremental patch and forced full rebuild). Run with -race. The
// invariant: every stream is internally consistent (header count equals
// delivered nodes) and //book counts only grow.
func TestStreamAndCountDuringBatchedUpdates(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	ctx := context.Background()
	st := NewStore(NewMetrics(), 16)
	for _, doc := range []struct {
		name    string
		noPatch bool
	}{{"patched", false}, {"rebuilt", true}} {
		if _, err := st.Load(ctx, doc.name, api.LoadRequest{XML: benchXML(1_000), TrackOrder: true}); err != nil {
			t.Fatal(err)
		}
		d, err := st.get(doc.name)
		if err != nil {
			t.Fatal(err)
		}
		d.noPatch = doc.noPatch
	}

	const (
		readers     = 3
		queriesEach = 25
		batches     = 8
		batchSize   = 6
	)
	initial := make(map[string]int)
	for _, name := range []string{"patched", "rebuilt"} {
		resp, err := st.Query(ctx, name, "//book")
		if err != nil {
			t.Fatal(err)
		}
		initial[name] = resp.Count
	}

	var wg sync.WaitGroup
	for _, name := range []string{"patched", "rebuilt"} {
		shelf := lastShelf(t, st, name)
		wg.Add(1)
		go func(name string, shelf int) {
			defer wg.Done()
			appendBook := api.UpdateRequest{Op: api.OpInsert, Parent: shelf, Index: 1 << 30, Tag: "book"}
			req := api.BatchUpdateRequest{Ops: make([]api.UpdateRequest, batchSize)}
			for i := range req.Ops {
				req.Ops[i] = appendBook
			}
			for i := 0; i < batches; i++ {
				if resp, err := st.UpdateBatch(ctx, name, req); err != nil || resp.Failed != -1 {
					t.Errorf("%s batch %d: %v (failed=%d)", name, i, err, resp.Failed)
					return
				}
			}
		}(name, shelf)

		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(name string, r int) {
				defer wg.Done()
				for i := 0; i < queriesEach; i++ {
					switch (r + i) % 3 {
					case 0: // streamed: header count must match delivered nodes
						var header api.StreamHeader
						delivered := 0
						err := st.QueryStream(ctx, name, "//shelf//book", false, func(v any) error {
							switch m := v.(type) {
							case api.StreamHeader:
								header = m
							case api.StreamChunk:
								delivered += len(m.Nodes)
							}
							return nil
						})
						if err != nil {
							t.Errorf("%s reader %d stream: %v", name, r, err)
							return
						}
						if delivered != header.Count {
							t.Errorf("%s reader %d: stream delivered %d of %d nodes", name, r, delivered, header.Count)
							return
						}
					case 1: // count mode
						resp, err := st.QueryMode(ctx, name, "//book", api.QueryModeCount, false)
						if err != nil {
							t.Errorf("%s reader %d count: %v", name, r, err)
							return
						}
						if resp.Count < initial[name] {
							t.Errorf("%s reader %d: count %d below initial %d", name, r, resp.Count, initial[name])
							return
						}
					default: // full query keeps the materializing path in the mix
						if _, err := st.Query(ctx, name, "//book"); err != nil {
							t.Errorf("%s reader %d query: %v", name, r, err)
							return
						}
					}
				}
			}(name, r)
		}
	}
	wg.Wait()

	for _, name := range []string{"patched", "rebuilt"} {
		resp, err := st.QueryMode(ctx, name, "//book", api.QueryModeCount, false)
		if err != nil {
			t.Fatal(err)
		}
		want := initial[name] + batches*batchSize
		if resp.Count != want {
			t.Errorf("%s: final //book count %d, want %d", name, resp.Count, want)
		}
	}
}
