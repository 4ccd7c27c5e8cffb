package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"primelabel/internal/datasets"
	"primelabel/internal/server/api"
	"primelabel/internal/server/trace"
)

// The request deadline: every route but a replication stream carries a
// context deadline of RequestTimeout, the store checks it before a request
// starts or publishes work, and a done context answers 503 having changed
// nothing. Each request below sends its own X-Trace-Id, and every assertion
// on server state first waits for that trace to reach the ring, so the
// handler has finished whatever it was going to do.

// sendTraced sends one JSON request with the given trace ID and returns the
// response status, headers and body; a transport failure fails the test and
// returns status 0. Safe to call from any goroutine.
func sendTraced(t *testing.T, method, url, traceID string, body any) (int, http.Header, []byte) {
	t.Helper()
	b, _ := json.Marshal(body)
	req, err := http.NewRequest(method, url, bytes.NewReader(b))
	if err != nil {
		t.Error(err)
		return 0, nil, nil
	}
	req.Header.Set(api.TraceIDHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return 0, nil, nil
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, resp.Header, out
}

// waitTrace waits until the server's trace ring holds the trace with id and
// returns it. It reads the ring in-process, so it works even when the
// request timeout is too short for a /debug/traces request.
func waitTrace(t *testing.T, srv *Server, id string) *trace.Trace {
	t.Helper()
	var found *trace.Trace
	waitUntil(t, 10*time.Second, func() string {
		for _, tr := range srv.traces.Snapshot() {
			if tr.ID == id {
				found = tr
				return ""
			}
		}
		return "trace " + id + " not in the ring"
	})
	return found
}

// assertTimedOut checks one 503 answer: the timeout body, a JSON content
// type, and the request's own trace ID echoed.
func assertTimedOut(t *testing.T, what string, status int, hdr http.Header, body []byte, traceID string) {
	t.Helper()
	if status != http.StatusServiceUnavailable {
		t.Errorf("%s: status %d, want 503 (body %s)", what, status, body)
		return
	}
	if want := `{"error":"request timed out"}` + "\n"; string(body) != want {
		t.Errorf("%s: body %q, want %q", what, body, want)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: content type %q, want application/json", what, ct)
	}
	if got := hdr.Get(api.TraceIDHeader); got != traceID {
		t.Errorf("%s: %s = %q, want %q", what, api.TraceIDHeader, got, traceID)
	}
}

// holdWriteLock takes name's write lock and releases it after hold. The
// returned channel closes on release.
func holdWriteLock(t *testing.T, srv *Server, name string, hold time.Duration) <-chan struct{} {
	t.Helper()
	d, err := srv.store.get(name)
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	released := make(chan struct{})
	go func() {
		time.Sleep(hold)
		d.mu.Unlock()
		close(released)
	}()
	return released
}

// TestDeadlineReadsBehindLock queues a query, a relation probe, a document
// info and the document list behind a write lock held three times the
// request timeout: each answers 503 with its trace ID, and both the error
// counter and the trace record 503.
func TestDeadlineReadsBehindLock(t *testing.T) {
	srv, c := startTracedServer(t, Config{RequestTimeout: 100 * time.Millisecond})
	if _, err := c.Load("books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr() + "/docs/books"
	type call struct {
		endpoint, method, url, id string
		body                      any
	}
	calls := []call{
		{"query", http.MethodPost, base + "/query", "deadline-query", api.QueryRequest{XPath: "//book"}},
		{"relation", http.MethodPost, base + "/relation", "deadline-relation", api.RelationRequest{Kind: api.RelAncestor, A: 0, B: 1}},
		{"get", http.MethodGet, base, "deadline-get", nil},
		{"list", http.MethodGet, "http://" + srv.Addr() + "/docs", "deadline-list", nil},
	}
	released := holdWriteLock(t, srv, "books", 300*time.Millisecond)
	var wg sync.WaitGroup
	for _, cl := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, hdr, body := sendTraced(t, cl.method, cl.url, cl.id, cl.body)
			assertTimedOut(t, cl.endpoint, status, hdr, body, cl.id)
		}()
	}
	wg.Wait()
	<-released
	for _, cl := range calls {
		if got := waitTrace(t, srv, cl.id).Status(); got != http.StatusServiceUnavailable {
			t.Errorf("%s trace status %d, want 503", cl.endpoint, got)
		}
		if got := srv.metrics.endpoints[cl.endpoint].errors.Load(); got != 1 {
			t.Errorf("labeld_request_errors_total{endpoint=%q} = %d, want 1", cl.endpoint, got)
		}
	}
}

// TestDeadlineUpdatesBehindLockChangeNothing queues an update and a two-op
// batch behind a held write lock: both answer 503, and once the lock is
// released neither has applied — generation, relabel total, update counter
// and journal are as they were.
func TestDeadlineUpdatesBehindLockChangeNothing(t *testing.T) {
	srv, c := startTracedServer(t, Config{RequestTimeout: 100 * time.Millisecond, DataDir: t.TempDir()})
	before, err := c.Load("books", api.LoadRequest{XML: sampleXML, TrackOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update("books", api.UpdateRequest{Op: api.OpInsert, Parent: 1, Index: 0, Tag: "book"}); err != nil {
		t.Fatal(err)
	}
	if before, err = c.Info("books"); err != nil {
		t.Fatal(err)
	}
	updates := srv.metrics.updates.Load()
	recs, _, err := srv.store.persist.ReplayJournal("books")
	if err != nil {
		t.Fatal(err)
	}
	journaled := len(recs)

	base := "http://" + srv.Addr() + "/docs/books"
	insert := api.UpdateRequest{Op: api.OpInsert, Parent: 1, Index: 0, Tag: "late"}
	type call struct {
		endpoint, path, id string
		body               any
	}
	calls := []call{
		{"update", "/update", "deadline-update", insert},
		{"update_batch", "/update/batch", "deadline-batch", api.BatchUpdateRequest{Ops: []api.UpdateRequest{insert, insert}}},
	}
	released := holdWriteLock(t, srv, "books", 300*time.Millisecond)
	var wg sync.WaitGroup
	for _, cl := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, hdr, body := sendTraced(t, http.MethodPost, base+cl.path, cl.id, cl.body)
			assertTimedOut(t, cl.endpoint, status, hdr, body, cl.id)
		}()
	}
	wg.Wait()
	<-released
	for _, cl := range calls {
		if got := waitTrace(t, srv, cl.id).Status(); got != http.StatusServiceUnavailable {
			t.Errorf("%s trace status %d, want 503", cl.endpoint, got)
		}
	}
	after, err := c.Info("books")
	if err != nil {
		t.Fatal(err)
	}
	if after.Generation != before.Generation || after.Relabeled != before.Relabeled || after.Elements != before.Elements {
		t.Errorf("timed-out updates changed the document: before %+v, after %+v", before, after)
	}
	if got := srv.metrics.updates.Load(); got != updates {
		t.Errorf("labeld_updates_total = %d, want %d", got, updates)
	}
	if recs, _, err = srv.store.persist.ReplayJournal("books"); err != nil {
		t.Fatal(err)
	} else if len(recs) != journaled {
		t.Errorf("journal holds %d records, want %d", len(recs), journaled)
	}
}

// TestDeadlineLoadPublishesNothing loads a 33k-element document under a
// 1 ms timeout: parsing alone outlasts it, so the load answers 503 and the
// document never appears.
func TestDeadlineLoadPublishesNothing(t *testing.T) {
	srv, err := New(Config{RequestTimeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownNode(t, srv) })
	doc := datasets.Replicate(datasets.D8(), 5)
	const id = "deadline-load"
	status, hdr, body := sendTraced(t, http.MethodPut, "http://"+addr+"/docs/big", id,
		api.LoadRequest{XML: doc.String(), TrackOrder: true})
	assertTimedOut(t, "load", status, hdr, body, id)
	if got := waitTrace(t, srv, id).Status(); got != http.StatusServiceUnavailable {
		t.Errorf("load trace status %d, want 503", got)
	}
	if _, err := srv.Store().Info("big"); !errors.Is(err, ErrUnknownDocument) {
		t.Errorf("GET /docs/big after a timed-out load: err %v, want unknown document", err)
	}
	if n := srv.Store().Count(); n != 0 {
		t.Errorf("store hosts %d documents, want 0", n)
	}
}

// expiresAfterLockCheck is a context whose deadline passes between the
// read path's check after it takes the document lock (the first Err call)
// and its check after evaluation.
type expiresAfterLockCheck struct {
	context.Context
	calls int
}

func (c *expiresAfterLockCheck) Err() error {
	if c.calls++; c.calls > 1 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestDeadlineAfterEvaluationIsRecorded times a query out once its
// evaluation has finished: it returns ErrTimedOut and caches nothing, and
// query stats count the call as failed and keep its planner profile.
func TestDeadlineAfterEvaluationIsRecorded(t *testing.T) {
	st := NewStore(NewMetrics(), 16)
	ctx := context.Background()
	if _, err := st.Load(ctx, "books", api.LoadRequest{XML: sampleXML}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(&expiresAfterLockCheck{Context: ctx}, "books", "//book"); !errors.Is(err, ErrTimedOut) {
		t.Fatalf("query whose deadline passed during evaluation: err %v, want ErrTimedOut", err)
	}
	entries := st.QueryStats().Snapshot("books", 0).Entries
	if len(entries) != 1 {
		t.Fatalf("query stats hold %d entries, want 1: %+v", len(entries), entries)
	}
	e := entries[0]
	if e.Shape != "//book" || e.Calls != 1 || e.Errors != 1 || e.CacheHits != 0 {
		t.Errorf("%q: %d calls, %d errors, %d hits; want //book, 1, 1, 0", e.Shape, e.Calls, e.Errors, e.CacheHits)
	}
	if e.SlowProfile == nil || e.SlowProfile.Candidates == 0 {
		t.Errorf("slow profile %+v, want the evaluation's planner profile", e.SlowProfile)
	}
	resp, err := st.Query(ctx, "books", "//book")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("the timed-out evaluation's answer was cached")
	}
}

// TestReplicationStreamOutlivesRequestTimeout keeps one replication stream
// applying records for ten times the request timeout: the stream has no
// deadline, so the follower never has to reconnect.
func TestReplicationStreamOutlivesRequestTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	pdir := t.TempDir()
	_, pc, purl := startReplNode(t, Config{DataDir: pdir, NoFsync: true, RequestTimeout: timeout})
	fcfg := followerConfig(t, purl)
	fcfg.RequestTimeout = timeout
	_, fc, _ := startReplNode(t, fcfg)
	if _, err := pc.Load("books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	waitSynced(t, pc, fc, "books")
	streams := func() string {
		text, err := pc.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "labeld_replication_streams_total ") {
				return line
			}
		}
		t.Fatal("labeld_replication_streams_total missing from /metrics")
		return ""
	}
	opened := streams()

	start := time.Now()
	for i := 0; time.Since(start) < 10*timeout; i++ {
		if _, err := pc.Update("books", api.UpdateRequest{Op: api.OpInsert, Parent: 1, Index: 0, Tag: fmt.Sprintf("b%d", i)}); err != nil {
			t.Fatal(err)
		}
		waitSynced(t, pc, fc, "books")
		time.Sleep(timeout / 4)
	}
	if got := streams(); got != opened {
		t.Errorf("the follower opened new streams while records flowed: %q, then %q", opened, got)
	}
}

// TestStreamedQueryOutlivesRequestTimeout reads a streamed query more
// slowly than the request timeout, through a small receive buffer: the
// deadline ends with the header, so every chunk and the done line arrive.
func TestStreamedQueryOutlivesRequestTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	srv, c := startTracedServer(t, Config{RequestTimeout: timeout})
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 4*streamChunkSize; i++ {
		fmt.Fprintf(&b, "<item>%020d</item>", i)
	}
	b.WriteString("</r>")
	if _, err := c.Load("items", api.LoadRequest{XML: b.String(), TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err == nil {
				err = conn.(*net.TCPConn).SetReadBuffer(4096)
			}
			return conn, err
		},
	}}
	body, _ := json.Marshal(api.QueryRequest{XPath: "//item"})
	resp, err := hc.Post("http://"+srv.Addr()+"/docs/items/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<22)
	var header api.StreamHeader
	if !sc.Scan() {
		t.Fatalf("no header line: %v", sc.Err())
	}
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
		t.Fatal(err)
	}
	nodes, done := 0, false
	for sc.Scan() {
		time.Sleep(timeout / 2)
		var chunk api.StreamChunk
		if err := json.Unmarshal(sc.Bytes(), &chunk); err != nil {
			t.Fatal(err)
		}
		nodes += len(chunk.Nodes)
		done = chunk.Done
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if header.Count != 4*streamChunkSize || nodes != header.Count || !done {
		t.Errorf("stream delivered %d of %d nodes (header %d), done %v", nodes, 4*streamChunkSize, header.Count, done)
	}
}

// TestWrongMethodIs405OnEveryRoute pins the single mux: the streaming-query
// and replication routes answer a wrong method with 405 and an Allow
// header, as every other route does. Behind the former bypass mux they
// answered 404.
func TestWrongMethodIs405OnEveryRoute(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, c := range []struct{ method, path, allow string }{
		{http.MethodPost, "/replicate/x", "GET, HEAD"},
		{http.MethodPost, "/replicate/x/digest", "GET, HEAD"},
		{http.MethodGet, "/docs/x/query/stream", "POST"},
		{http.MethodGet, "/docs/x/query", "POST"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != c.allow {
			t.Errorf("%s %s: %d, Allow %q; want 405, Allow %q", c.method, c.path, rec.Code, rec.Header().Get("Allow"), c.allow)
		}
	}
}
