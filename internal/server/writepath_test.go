package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"primelabel/internal/server/api"
	"primelabel/internal/server/client"
	"primelabel/internal/server/persist"
	"primelabel/internal/server/replica"
)

// Fixtures written by the server before single updates ran through the
// batch path. journal-v1 holds the journal writeGoldenJournal produced and
// the answers the server gave for it. oneop-batch-v1 is a data directory
// (snapshot plus journal, no final snapshot) whose journal holds one-op
// batch records in the "ops" shape, which the server no longer writes.
const (
	goldenJournalDir = "testdata/journal-v1"
	oneOpBatchDir    = "testdata/oneop-batch-v1"
)

// writeGoldenJournal loads sampleXML with order tracking into st and runs
// the fixed update sequence behind journal-v1: single updates, two of them
// labeling failures (root wrap, root delete) and one a validation failure,
// which is never journaled; then a two-op batch, and a two-op batch whose
// second op is a labeling failure. It returns each call's outcome as one
// line of text.
func writeGoldenJournal(t *testing.T, st *Store) []string {
	t.Helper()
	ctx := context.Background()
	loadBooks(t, st, "books")
	outcome := func(resp any, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		b, merr := json.Marshal(resp)
		if merr != nil {
			t.Fatal(merr)
		}
		return string(b)
	}
	var out []string
	for _, req := range []api.UpdateRequest{
		{Op: api.OpInsert, Parent: 1, Index: 0, Tag: "book"},
		{Op: api.OpWrap, Target: 2, Tag: "featured"},
		{Op: api.OpWrap, Target: 0, Tag: "w"},
		{Op: api.OpDelete, Target: 0},
		{Op: api.OpInsert, Parent: 1, Index: 0},
		{Op: api.OpDelete, Target: 4},
		{Op: api.OpInsert, Parent: 0, Index: 1, Tag: "shelf"},
	} {
		resp, err := st.Update(ctx, "books", req)
		out = append(out, outcome(resp, err))
	}
	for _, ops := range [][]api.UpdateRequest{
		{{Op: api.OpInsert, Parent: 1, Index: 1, Tag: "book"}, {Op: api.OpInsert, Parent: 1, Index: 2, Tag: "book"}},
		{{Op: api.OpInsert, Parent: 1, Index: 0, Tag: "book"}, {Op: api.OpDelete, Target: 0}},
	} {
		resp, err := st.UpdateBatch(ctx, "books", api.BatchUpdateRequest{Ops: ops})
		out = append(out, outcome(resp, err))
	}
	return out
}

// TestJournalBytesMatchGolden holds single updates and multi-op batches to
// the journal bytes and answers the server wrote before single updates
// became one-op batches.
func TestJournalBytesMatchGolden(t *testing.T) {
	dir := t.TempDir()
	st := newPersistentStore(t, dir, 1<<30)
	got := writeGoldenJournal(t, st)

	raw, err := os.ReadFile(filepath.Join(goldenJournalDir, "outcomes.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("outcomes differ:\n got  %q\n want %q", got, want)
	}
	gotJournal, err := os.ReadFile(filepath.Join(dir, "books.journal"))
	if err != nil {
		t.Fatal(err)
	}
	wantJournal, err := os.ReadFile(filepath.Join(goldenJournalDir, "books.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJournal, wantJournal) {
		t.Errorf("journal bytes differ:\n got  %q\n want %q", gotJournal, wantJournal)
	}
}

// TestOneOpBatchJournalsLikeSingleUpdate checks that a one-op batch writes
// the same journal record, byte for byte, as the equivalent single update,
// for a successful op and for a labeling failure.
func TestOneOpBatchJournalsLikeSingleUpdate(t *testing.T) {
	for _, op := range []api.UpdateRequest{
		{Op: api.OpInsert, Parent: 1, Index: 1, Tag: "book"},
		{Op: api.OpDelete, Target: 0},
	} {
		single, batch := t.TempDir(), t.TempDir()
		st := newPersistentStore(t, single, 1<<30)
		loadBooks(t, st, "books")
		st.Update(context.Background(), "books", op) // a labeling failure is journaled too
		bt := newPersistentStore(t, batch, 1<<30)
		loadBooks(t, bt, "books")
		if _, err := bt.UpdateBatch(context.Background(), "books", api.BatchUpdateRequest{Ops: []api.UpdateRequest{op}}); err != nil {
			t.Fatal(err)
		}
		a, err := os.ReadFile(filepath.Join(single, "books.journal"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(batch, "books.journal"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%+v: one-op batch journaled %q, single update %q", op, b, a)
		}
		if bytes.Contains(b, []byte(`"ops"`)) {
			t.Errorf("%+v: one-op batch journaled in the ops shape: %q", op, b)
		}
	}
}

// oneOpBatchOps is the update sequence behind oneop-batch-v1, each entry
// one request: a one-op batch, a single update, and a one-op batch whose op
// is a labeling failure.
var oneOpBatchOps = [][]api.UpdateRequest{
	{{Op: api.OpInsert, Parent: 1, Index: 1, Tag: "book"}},
	{{Op: api.OpWrap, Target: 2, Tag: "featured"}},
	{{Op: api.OpDelete, Target: 0}},
}

// copyFixture copies a fixture data directory into a fresh temp dir.
func copyFixture(t *testing.T, from string) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range []string{"books.snap", "books.journal"} {
		b, err := os.ReadFile(filepath.Join(from, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestOneOpBatchRecordRecovers recovers the oneop-batch-v1 data directory
// and compares the document with one that applied the same requests in
// memory.
func TestOneOpBatchRecordRecovers(t *testing.T) {
	dir := copyFixture(t, oneOpBatchDir)
	journal, err := os.ReadFile(filepath.Join(dir, "books.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(journal), `"ops":[{`); n != 2 {
		t.Fatalf("fixture holds %d ops-shape records, want 2", n)
	}
	st := newPersistentStore(t, dir, 1<<30)
	t.Cleanup(func() { st.Close() })
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}

	ref := NewStore(NewMetrics(), 16)
	loadBooks(t, ref, "books")
	for _, ops := range oneOpBatchOps {
		if _, err := ref.UpdateBatch(context.Background(), "books", api.BatchUpdateRequest{Ops: ops}); err != nil {
			t.Fatal(err)
		}
	}
	got, want := captureState(t, st, "books"), captureState(t, ref, "books")
	want.info.Durable = true
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered\n %+v\nwant\n %+v", got, want)
	}
	if got.info.Generation != 3 {
		t.Errorf("recovered generation %d, want 3", got.info.Generation)
	}
}

// TestOneOpBatchRecordReplicates serves the oneop-batch-v1 journal from a
// primary to a fresh follower, which must reach parity and re-journal every
// record verbatim: its journal digests equal the primary's.
func TestOneOpBatchRecordReplicates(t *testing.T) {
	cfg := Config{DataDir: copyFixture(t, oneOpBatchDir), NoFsync: true}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownNode(t, srv) })
	purl := "http://" + addr
	_, fc, furl := startReplNode(t, followerConfig(t, purl))
	pc := client.New(purl, nil)
	waitSynced(t, pc, fc, "books")
	assertParity(t, pc, fc, "books")

	digests := func(base string) []persist.RecordDigest {
		t.Helper()
		resp, err := http.Get(base + "/replicate/books/digest")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var d replica.DigestResponse
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		for i := range d.Digests {
			d.Digests[i].Offset = 0 // local to each file
		}
		return d.Digests
	}
	p, f := digests(purl), digests(furl)
	if len(p) != 3 || fmt.Sprint(p) != fmt.Sprint(f) {
		t.Errorf("follower digests %v, primary %v", f, p)
	}
}

// TestDocumentsGaugeFollowsRegistry checks labeld_documents against
// Store.Count after every kind of registry change: load, replace, delete,
// snapshot install (fresh and over a hosted copy), rebase, drop, and
// recovery into an empty and into a populated store.
func TestDocumentsGaugeFollowsRegistry(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := newPersistentStore(t, dir, 1<<30)
	t.Cleanup(func() { st.Close() })
	check := func(st *Store, step string, want int) {
		t.Helper()
		if n := st.Count(); n != want {
			t.Fatalf("after %s: %d documents, want %d", step, n, want)
		}
		if g := st.metrics.documents.Load(); g != int64(want) {
			t.Errorf("after %s: labeld_documents = %d, Count() = %d", step, g, want)
		}
	}
	loadBooks(t, st, "a")
	check(st, "load a", 1)
	loadBooks(t, st, "b")
	check(st, "load b", 2)
	loadBooks(t, st, "a")
	check(st, "replace a", 2)
	if err := st.Delete(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	check(st, "delete b", 1)

	src := newPersistentStore(t, t.TempDir(), 1<<30)
	loadBooks(t, src, "c")
	image, err := src.SnapshotRaw("c")
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"install c", "reinstall c"} {
		if _, err := st.InstallSnapshot(ctx, "c", image); err != nil {
			t.Fatal(err)
		}
		check(st, step, 2)
	}
	mustUpdate(t, st, "a", api.UpdateRequest{Op: api.OpInsert, Parent: 1, Index: 0, Tag: "book"})
	digests, err := st.Digests("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Rebase(ctx, "a", digests); err != nil || !ok {
		t.Fatalf("rebase: ok=%v err=%v", ok, err)
	}
	check(st, "rebase a", 2)
	for _, name := range []string{"c", "missing"} {
		if err := st.Drop(name); err != nil {
			t.Fatal(err)
		}
		check(st, "drop "+name, 1)
	}

	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	check(st, "recover into a populated store", 1)
	fresh := newPersistentStore(t, dir, 1<<30)
	t.Cleanup(func() { fresh.Close() })
	if _, err := fresh.Recover(); err != nil {
		t.Fatal(err)
	}
	check(fresh, "recover into an empty store", 1)
}
