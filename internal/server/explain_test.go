package server

// Server-level tests for the query-introspection plane: explain-mode result
// parity across backends, the /debug/querystats registry endpoint, its
// /metrics families, the /debug/traces filter composition, and the two-node
// cross-trace contract.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"primelabel/internal/server/api"
	"primelabel/internal/server/client"
)

// explainAxisQueries exercises every axis against the sampleXML store plus
// cacheable repeats; parity must hold on cache misses and hits alike.
var explainAxisQueries = []string{
	"//book",
	"/store/shelf",
	"/store/shelf[1]/book",
	"//book/title",
	"//shelf//title",
	"//book/following-sibling::book",
	"//title/preceding::book",
	"//shelf/book[2]",
	"//book/following::title",
	"//book/preceding-sibling::book",
}

// stripExplain marshals a query response with the profile removed — the
// byte-parity comparand.
func stripExplain(t *testing.T, resp api.QueryResponse) string {
	t.Helper()
	resp.Explain = nil
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestExplainParityAcrossBackends drives two identical documents through the
// same query sequence — one with ?explain=1, one without — and requires
// byte-identical responses modulo the explain field, for several serving
// schemes, on cache misses, on cache hits, and again after a write.
func TestExplainParityAcrossBackends(t *testing.T) {
	_, c := startTracedServer(t, Config{RequestTimeout: 30 * time.Second})
	for _, backend := range []struct {
		name string
		req  api.LoadRequest
	}{
		{"prime", api.LoadRequest{XML: sampleXML, TrackOrder: true}},
		{"interval-xiss", api.LoadRequest{XML: sampleXML, Scheme: "interval"}},
		{"prefix-2+ordered", api.LoadRequest{XML: sampleXML, Scheme: "prefix-2", OrderPreserving: true}},
	} {
		plain, profiled := backend.name+"-plain", backend.name+"-profiled"
		for _, name := range []string{plain, profiled} {
			if _, err := c.Load(name, backend.req); err != nil {
				t.Fatal(err)
			}
		}
		explainParityRounds(t, c, plain, profiled, backend.name)
	}
}

// explainParityRounds runs TestExplainParityAcrossBackends' query rounds
// against one pair of identical documents served by the named scheme.
func explainParityRounds(t *testing.T, c *client.Client, plainDoc, profiledDoc, scheme string) {
	t.Helper()
	runRound := func(wantBackend string, wantCacheHit bool) {
		t.Helper()
		for _, q := range explainAxisQueries {
			plain, err := c.Query(plainDoc, q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			profiled, err := c.QueryExplain(profiledDoc, q)
			if err != nil {
				t.Fatalf("%s (explain): %v", q, err)
			}
			if got, want := stripExplain(t, profiled), stripExplain(t, plain); got != want {
				t.Errorf("%s: explain result differs\n explain: %s\n plain:   %s", q, got, want)
			}
			ex := profiled.Explain
			if ex == nil {
				t.Fatalf("%s: no explain profile on ?explain=1 response", q)
			}
			if ex.Backend != wantBackend {
				t.Errorf("%s: backend %q, want %q", q, ex.Backend, wantBackend)
			}
			if ex.CacheHit != wantCacheHit {
				t.Errorf("%s: cache_hit %v, want %v", q, ex.CacheHit, wantCacheHit)
			}
			if ex.CacheHit != profiled.Cached {
				t.Errorf("%s: explain cache_hit %v disagrees with response cached %v",
					q, ex.CacheHit, profiled.Cached)
			}
		}
	}

	runRound(scheme, false) // cache misses
	runRound(scheme, true)  // identical repeats: cache hits

	// An identical write to both docs; misses re-run with parity intact.
	for _, name := range []string{plainDoc, profiledDoc} {
		if _, err := c.Insert(name, 0, 0, "annex"); err != nil {
			t.Fatal(err)
		}
	}
	runRound(scheme, false)

	// A bad query fails identically in both modes.
	_, plainErr := c.Query(plainDoc, "///")
	_, explainErr := c.QueryExplain(profiledDoc, "///")
	if plainErr == nil || explainErr == nil || plainErr.Error() != explainErr.Error() {
		t.Errorf("error parity broken: plain %v, explain %v", plainErr, explainErr)
	}
}

// TestExplainProfileContents pins what a miss-path profile must carry on a
// prime-backed document: the normalized shape, per-step narrowing that adds
// up, label-bit stats, and stage timings.
func TestExplainProfileContents(t *testing.T) {
	srv, c := startTracedServer(t, Config{RequestTimeout: 30 * time.Second})
	if _, err := c.Load("books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.QueryExplain("books", "/store/shelf[1]/book")
	if err != nil {
		t.Fatal(err)
	}
	ex := resp.Explain
	if ex == nil {
		t.Fatal("no profile")
	}
	if ex.Shape != "/store/shelf[*]/book" {
		t.Errorf("shape = %q, want /store/shelf[*]/book", ex.Shape)
	}
	if len(ex.Steps) != 3 {
		t.Fatalf("steps = %+v, want 3", ex.Steps)
	}
	if ex.Steps[0].Name != "store" || ex.Steps[1].Pos != 1 || ex.Steps[1].Name != "shelf" || ex.Steps[2].Name != "book" {
		t.Errorf("step metadata wrong: %+v", ex.Steps)
	}
	if last := ex.Steps[len(ex.Steps)-1]; last.Emitted != resp.Count {
		t.Errorf("final step emitted %d, response count %d", last.Emitted, resp.Count)
	}
	sum := 0
	for _, st := range ex.Steps {
		sum += st.Candidates
	}
	if sum != ex.Candidates {
		t.Errorf("step candidates sum %d != profile candidates %d", sum, ex.Candidates)
	}
	if ex.MaxLabelBits <= 0 {
		t.Errorf("max_label_bits = %d", ex.MaxLabelBits)
	}
	stages := map[string]bool{}
	for _, sg := range ex.Stages {
		stages[sg.Stage] = true
	}
	if !stages["xpath_eval"] {
		t.Errorf("profile stages missing xpath_eval: %+v", ex.Stages)
	}

	// The cache-hit profile drops execution detail but keeps the planner
	// summary fields a dashboard groups by.
	hit, err := c.QueryExplain("books", "/store/shelf[1]/book")
	if err != nil {
		t.Fatal(err)
	}
	if hx := hit.Explain; hx == nil || !hx.CacheHit || len(hx.Steps) != 0 || hx.Backend != "prime" {
		t.Errorf("cache-hit profile wrong: %+v", hit.Explain)
	}

	// Count and stream misses take the same read path and carry the same
	// step detail.
	ctx := context.Background()
	cnt, err := srv.store.QueryMode(ctx, "books", "//title", api.QueryModeCount, true)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Explain == nil || len(cnt.Explain.Steps) == 0 {
		t.Errorf("count-mode miss carries no step detail: %+v", cnt.Explain)
	}
	var done *api.QueryExplain
	if err := srv.store.QueryStream(ctx, "books", "//shelf", true, func(v any) error {
		if ch, ok := v.(api.StreamChunk); ok && ch.Done {
			done = ch.Explain
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if done == nil || !done.Streamed || len(done.Steps) == 0 {
		t.Errorf("streamed miss carries no step detail: %+v", done)
	}
}

// TestQueryStatsEndpoint drives mixed traffic and checks the registry view:
// positional variants aggregate under one shape, cache hits and errors are
// classified, entries sort by total time, and doc=/k= narrow the dump.
func TestQueryStatsEndpoint(t *testing.T) {
	srv, c := startTracedServer(t, Config{RequestTimeout: 30 * time.Second})
	for _, name := range []string{"books", "other"} {
		if _, err := c.Load(name, api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
			t.Fatal(err)
		}
	}
	// Two positional variants of one shape, one repeated (a cache hit), one
	// failing query, and traffic on a second doc.
	for _, q := range []string{"/store/shelf[1]/book", "/store/shelf[2]/book", "/store/shelf[1]/book"} {
		if _, err := c.Query("books", q); err != nil {
			t.Fatal(err)
		}
	}
	c.Query("books", "///") // deliberate parse error
	if _, err := c.Query("other", "//title"); err != nil {
		t.Fatal(err)
	}

	stats, err := c.QueryStats("books", 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Capacity != 4096 {
		t.Errorf("capacity = %d, want default 4096", stats.Capacity)
	}
	var shelfBook *api.QueryStatsEntry
	for i := range stats.Entries {
		e := &stats.Entries[i]
		if e.Doc != "books" {
			t.Errorf("doc filter leaked entry for %q", e.Doc)
		}
		if e.Shape == "/store/shelf[*]/book" {
			shelfBook = e
		}
	}
	if shelfBook == nil {
		t.Fatalf("masked shape not found in %+v", stats.Entries)
	}
	if shelfBook.Calls != 3 || shelfBook.CacheHits != 1 {
		t.Errorf("shape aggregate wrong: %+v", shelfBook)
	}
	if shelfBook.SlowProfile == nil || shelfBook.SlowProfile.Backend != "prime" {
		t.Errorf("no slow-call profile attached without ?explain=1: %+v", shelfBook.SlowProfile)
	}
	found := false
	for _, e := range stats.Entries {
		if e.Shape == "///" && e.Errors == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("failed query not recorded: %+v", stats.Entries)
	}
	for i := 1; i < len(stats.Entries); i++ {
		if stats.Entries[i].TotalMS > stats.Entries[i-1].TotalMS {
			t.Error("entries not sorted by total time descending")
		}
	}

	if top, err := c.QueryStats("", 1); err != nil || len(top.Entries) != 1 {
		t.Errorf("k=1: %d entries, err %v", len(top.Entries), err)
	}
	if all, err := c.QueryStats("", 0); err != nil || len(all.Entries) < 3 {
		t.Errorf("unfiltered dump too small: %+v, err %v", all, err)
	}

	// Bad k is a 400, mirroring the traces endpoint's parameter handling.
	hc := &http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Get("http://" + srv.Addr() + "/debug/querystats?k=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("k=-1 returned status %d, want 400", resp.StatusCode)
	}
}

// TestQueryShapeFromOneParse checks the shape the read path records without
// a second parse: positional variants share one entry, a cache hit (full
// entry or count slot) records the shape its miss recorded, and a query
// that does not parse is its own shape.
func TestQueryShapeFromOneParse(t *testing.T) {
	st := NewStore(NewMetrics(), 16)
	ctx := context.Background()
	if _, err := st.Load(ctx, "d", api.LoadRequest{XML: "<a><b/><b/><b/><b/><b/><b/><b/></a>"}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"/a/b[1]", "/a/b[7]", "/a/b[1]"} {
		resp, err := st.QueryExplain(ctx, "d", q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Explain.Shape != "/a/b[*]" {
			t.Errorf("%s (cached %v): explain shape %q, want /a/b[*]", q, resp.Cached, resp.Explain.Shape)
		}
	}
	for i := 0; i < 2; i++ {
		resp, err := st.QueryMode(ctx, "d", "/a/b[2]", api.QueryModeCount, true)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Explain.Shape != "/a/b[*]" {
			t.Errorf("count (cached %v): explain shape %q, want /a/b[*]", resp.Cached, resp.Explain.Shape)
		}
	}
	const bad = "not ( a valid ) query!"
	if _, err := st.Query(ctx, "d", bad); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unparsable query: err %v, want a bad request", err)
	}
	entries := st.QueryStats().Snapshot("d", 0).Entries
	if len(entries) != 2 {
		t.Fatalf("query stats hold %d entries, want 2: %+v", len(entries), entries)
	}
	for _, e := range entries {
		switch e.Shape {
		case "/a/b[*]":
			if e.Calls != 5 || e.CacheHits != 2 || e.Errors != 0 {
				t.Errorf("/a/b[*]: %d calls, %d hits, %d errors; want 5, 2, 0", e.Calls, e.CacheHits, e.Errors)
			}
		case bad:
			if e.Calls != 1 || e.Errors != 1 {
				t.Errorf("unparsable: %d calls, %d errors; want 1, 1", e.Calls, e.Errors)
			}
		default:
			t.Errorf("unexpected shape %q", e.Shape)
		}
	}
}

// TestQueryStatsExposition is the parser-based /metrics test for the
// labeld_querystats_* families: every series HELP-ed, gauges matching the
// registry, counters consistent with the traffic just generated.
func TestQueryStatsExposition(t *testing.T) {
	_, c := startTracedServer(t, Config{RequestTimeout: 30 * time.Second, QueryStatsShapes: 64})
	if _, err := c.Load("books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"//book", "//book", "//title"} {
		if _, err := c.Query("books", q); err != nil {
			t.Fatal(err)
		}
	}
	c.Query("books", "///") // one error

	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	helped, samples := parseExposition(t, text)
	values := make(map[string]float64)
	for _, s := range samples {
		values[s.family+s.labels] = s.value
	}
	for _, family := range []string{
		"labeld_querystats_shapes",
		"labeld_querystats_shape_capacity",
		"labeld_querystats_evictions_total",
		"labeld_querystats_calls_total",
		"labeld_querystats_errors_total",
		"labeld_querystats_cache_hits_total",
		"labeld_querystats_latency_seconds",
		"labeld_querystats_candidates",
	} {
		if !helped[family] {
			t.Errorf("family %s missing or un-HELPed", family)
		}
	}
	if values["labeld_querystats_shape_capacity"] != 64 {
		t.Errorf("capacity gauge = %g, want the configured 64", values["labeld_querystats_shape_capacity"])
	}
	if values["labeld_querystats_calls_total"] != 4 {
		t.Errorf("calls_total = %g, want 4", values["labeld_querystats_calls_total"])
	}
	if values["labeld_querystats_errors_total"] != 1 {
		t.Errorf("errors_total = %g, want 1", values["labeld_querystats_errors_total"])
	}
	if values["labeld_querystats_cache_hits_total"] != 1 {
		t.Errorf("cache_hits_total = %g, want 1 (//book repeated)", values["labeld_querystats_cache_hits_total"])
	}
	if values["labeld_querystats_shapes"] != 3 {
		t.Errorf("shapes gauge = %g, want 3", values["labeld_querystats_shapes"])
	}
	if v := values["labeld_querystats_latency_seconds_count"]; v != 4 {
		t.Errorf("latency histogram count = %g, want 4", v)
	}
	// Candidate volume is only observed on executed (non-cache-hit) calls.
	if v := values["labeld_querystats_candidates_count"]; v != 3 {
		t.Errorf("candidates histogram count = %g, want 3", v)
	}
	// No per-shape series: shapes are unbounded label values and belong on
	// /debug/querystats, not /metrics.
	for _, s := range samples {
		if strings.HasPrefix(s.family, "labeld_querystats_") && strings.Contains(s.labels, "shape") {
			t.Errorf("per-shape label leaked into exposition: %s%s", s.family, s.labels)
		}
	}
}

// TestTracesFilterComposition is the regression test for the /debug/traces
// filter bug: doc=, min= and limit= must compose (filter first, then limit)
// and the limit must be exact — the old loop returned limit+1 traces and
// treated limit=0 as 1.
func TestTracesFilterComposition(t *testing.T) {
	srv, c := startTracedServer(t, Config{RequestTimeout: 30 * time.Second})
	for _, name := range []string{"books", "other"} {
		if _, err := c.Load(name, api.LoadRequest{XML: sampleXML}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Query("books", "//book"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Query("other", "//title"); err != nil {
			t.Fatal(err)
		}
	}

	// doc= alone: only that document's traces (loads + queries).
	dump, err := c.Traces("", "books", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dump.Count < 6 {
		t.Fatalf("doc filter returned %d traces, want >= 6", dump.Count)
	}
	for _, tr := range dump.Traces {
		if tr.Doc != "books" {
			t.Errorf("doc filter leaked %q", tr.Doc)
		}
	}

	// All three composed: min=0 keeps everything, the limit applies to the
	// filtered sequence and is exact.
	limited, err := c.Traces("query", "books", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if limited.Count != 3 || len(limited.Traces) != 3 {
		t.Fatalf("limit=3 returned %d traces", len(limited.Traces))
	}
	for _, tr := range limited.Traces {
		if tr.Doc != "books" || tr.Endpoint != "query" {
			t.Errorf("composed filter leaked %s/%s", tr.Endpoint, tr.Doc)
		}
	}

	// limit=0 returns none (the client omits the parameter for 0, so go to
	// the endpoint directly).
	hc := &http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Get("http://" + srv.Addr() + "/debug/traces?doc=books&limit=0")
	if err != nil {
		t.Fatal(err)
	}
	var zero struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&zero); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if zero.Count != 0 {
		t.Errorf("limit=0 returned %d traces, want 0", zero.Count)
	}

	// id= composes too and returns exactly the named trace.
	const id = "filter-comp-1"
	if _, err := c.WithTraceID(id).Query("books", "//book/title"); err != nil {
		t.Fatal(err)
	}
	byID, err := c.TracesByID(id)
	if err != nil {
		t.Fatal(err)
	}
	if byID.Count != 1 || byID.Traces[0].ID != id {
		t.Errorf("id filter returned %+v", byID)
	}
}

// TestCrossNodeTrace is the two-node e2e for trace propagation: one write's
// trace ID spans the primary's journal_append and the follower's
// replica_apply, retrievable from both nodes' /debug/traces, and surfaces in
// the follower's exemplar-style info series.
func TestCrossNodeTrace(t *testing.T) {
	_, pc, purl := startReplNode(t, Config{DataDir: t.TempDir(), NoFsync: true})
	_, fc, _ := startReplNode(t, followerConfig(t, purl))

	if _, err := pc.Load("books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	waitSynced(t, pc, fc, "books")

	const id = "xnode-write-7"
	if _, err := pc.WithTraceID(id).Update("books", api.UpdateRequest{
		Op: api.OpInsert, Parent: 1, Index: 0, Tag: "book",
	}); err != nil {
		t.Fatal(err)
	}
	waitSynced(t, pc, fc, "books")

	// Primary side: the update trace under this ID includes the journal
	// append that put the record on the replication stream.
	pdump, err := pc.TracesByID(id)
	if err != nil {
		t.Fatal(err)
	}
	if pdump.Count != 1 || pdump.Traces[0].Endpoint != "update" {
		t.Fatalf("primary traces for %q: %+v", id, pdump)
	}
	pstages := map[string]bool{}
	for _, sp := range pdump.Traces[0].Spans {
		pstages[sp.Stage] = true
	}
	if !pstages["journal_append"] {
		t.Errorf("primary trace missing journal_append: %v", pstages)
	}

	// Follower side: the same ID names the apply of that record. The apply
	// can land a beat after the generation sync, so poll briefly.
	var fdump = struct {
		found bool
		doc   string
		stage bool
	}{}
	waitUntil(t, 10*time.Second, func() string {
		dump, err := fc.TracesByID(id)
		if err != nil {
			return err.Error()
		}
		for _, tr := range dump.Traces {
			if tr.Endpoint != "replica_apply" {
				continue
			}
			fdump.found = true
			fdump.doc = tr.Doc
			for _, sp := range tr.Spans {
				if sp.Stage == "replica_apply" {
					fdump.stage = true
				}
			}
		}
		if !fdump.found {
			return fmt.Sprintf("no replica_apply trace under %q yet", id)
		}
		return ""
	})
	if fdump.doc != "books" || !fdump.stage {
		t.Errorf("follower trace incomplete: %+v", fdump)
	}

	// The follower's metrics link the replication gauges to this trace.
	metrics, err := fc.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`labeld_replication_last_applied_trace_info{doc="books",trace_id=%q} 1`, id)
	if !strings.Contains(metrics, want) {
		t.Errorf("info series missing:\n%s", grepLines(metrics, "last_applied_trace"))
	}

	// A batch write echoes its trace ID in the response body and propagates
	// it the same way.
	const bid = "xnode-batch-3"
	bresp, err := pc.WithTraceID(bid).UpdateBatch("books", api.BatchUpdateRequest{
		Ops: []api.UpdateRequest{
			{Op: api.OpInsert, Parent: 1, Index: 0, Tag: "book"},
			{Op: api.OpInsert, Parent: 1, Index: 0, Tag: "book"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bresp.TraceID != bid {
		t.Errorf("batch response trace_id = %q, want %q", bresp.TraceID, bid)
	}
	waitSynced(t, pc, fc, "books")
	waitUntil(t, 10*time.Second, func() string {
		dump, err := fc.TracesByID(bid)
		if err != nil {
			return err.Error()
		}
		for _, tr := range dump.Traces {
			if tr.Endpoint == "replica_apply" {
				return ""
			}
		}
		return "batch apply trace not on follower yet"
	})
}

// TestExplainWriteStress races explain-mode queries against batched
// updates; run under -race it pins the locking of the whole introspection
// plane.
func TestExplainWriteStress(t *testing.T) {
	st := NewStore(NewMetrics(), 0)
	ctx := context.Background()
	if _, err := st.Load(ctx, "books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	const (
		readers = 4
		iters   = 300
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := explainAxisQueries[(w+i)%len(explainAxisQueries)]
				if i%2 == 0 {
					resp, err := st.QueryExplain(ctx, "books", q)
					if err != nil {
						errs <- fmt.Errorf("explain %s: %w", q, err)
						return
					}
					if resp.Explain == nil {
						errs <- fmt.Errorf("explain %s: profile missing", q)
						return
					}
				} else if _, err := st.Query(ctx, "books", q); err != nil {
					errs <- fmt.Errorf("query %s: %w", q, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The last shelf's document-order id (6 in sampleXML) is stable under
		// inserts into its own subtree.
		batch := api.BatchUpdateRequest{Ops: []api.UpdateRequest{
			{Op: api.OpInsert, Parent: 6, Index: 0, Tag: "book"},
			{Op: api.OpInsert, Parent: 6, Index: 0, Tag: "book"},
		}}
		for i := 0; i < 50; i++ {
			if _, err := st.UpdateBatch(ctx, "books", batch); err != nil {
				errs <- fmt.Errorf("batch: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	calls, errors, _, _ := st.QueryStats().Totals()
	if want := uint64(readers * iters); calls != want {
		t.Errorf("querystats recorded %d calls, want %d", calls, want)
	}
	if errors != 0 {
		t.Errorf("querystats recorded %d errors", errors)
	}
}
