package server

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"primelabel/internal/labeling/prime"
	"primelabel/internal/server/api"
	"primelabel/internal/server/persist"
	"primelabel/internal/xmltree"
)

// newPersistentStore builds a store writing into dir. Each call simulates
// one process lifetime: calling it again on the same dir without Close in
// between is the in-process equivalent of kill -9 plus restart (fsync'd
// journal appends are on disk; nothing else survives).
func newPersistentStore(t *testing.T, dir string, snapshotEvery int) *Store {
	t.Helper()
	mgr, err := persist.Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(NewMetrics(), 16)
	st.EnablePersistence(mgr, snapshotEvery)
	return st
}

// docState captures everything recovery must reproduce: registry info
// (generation, relabel counter), every element's path and label, and a set
// of SC-table order answers.
type docState struct {
	info    api.DocInfo
	nodes   []api.NodeRef
	befores []bool
}

func captureState(t *testing.T, st *Store, name string) docState {
	t.Helper()
	info, err := st.Info(name)
	if err != nil {
		t.Fatal(err)
	}
	q, err := st.Query(context.Background(), name, "//*")
	if err != nil {
		t.Fatal(err)
	}
	state := docState{info: info, nodes: q.Nodes}
	for b := 1; b < len(q.Nodes) && b < 6; b++ {
		resp, err := st.Relation(context.Background(), name, api.RelationRequest{Kind: api.RelBefore, A: 0, B: b})
		if err != nil {
			t.Fatal(err)
		}
		state.befores = append(state.befores, resp.Result)
	}
	return state
}

func mustUpdate(t *testing.T, st *Store, name string, req api.UpdateRequest) api.UpdateResponse {
	t.Helper()
	resp, err := st.Update(context.Background(), name, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// burst applies a mixed update sequence: inserts at both ends, a wrap, and
// a delete, leaving history-dependent allocation state behind.
func burst(t *testing.T, st *Store, name string) {
	t.Helper()
	mustUpdate(t, st, name, api.UpdateRequest{Op: api.OpInsert, Parent: 1, Index: 0, Tag: "book"})
	mustUpdate(t, st, name, api.UpdateRequest{Op: api.OpInsert, Parent: 1, Index: 3, Tag: "book"})
	mustUpdate(t, st, name, api.UpdateRequest{Op: api.OpWrap, Target: 2, Tag: "featured"})
	mustUpdate(t, st, name, api.UpdateRequest{Op: api.OpDelete, Target: 4})
	mustUpdate(t, st, name, api.UpdateRequest{Op: api.OpInsert, Parent: 0, Index: 1, Tag: "shelf"})
}

func loadBooks(t *testing.T, st *Store, name string) {
	t.Helper()
	if _, err := st.Load(context.Background(), name, api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverAfterSimulatedCrash(t *testing.T) {
	dir := t.TempDir()
	st := newPersistentStore(t, dir, 1000) // no compaction: force real replay
	loadBooks(t, st, "books")
	burst(t, st, "books")
	want := captureState(t, st, "books")
	if !want.info.Durable {
		t.Fatal("document not durable")
	}

	// "Crash": no Close, no final snapshot. Recover in a fresh store.
	st2 := newPersistentStore(t, dir, 1000)
	names, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"books"}) {
		t.Fatalf("recovered %v", names)
	}
	got := captureState(t, st2, "books")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("state after recovery differs:\n got %+v\nwant %+v", got, want)
	}

	// The recovered document keeps absorbing durable updates: crash again
	// and the post-recovery update survives too.
	mustUpdate(t, st2, "books", api.UpdateRequest{Op: api.OpInsert, Parent: 0, Index: 0, Tag: "shelf"})
	want2 := captureState(t, st2, "books")
	st3 := newPersistentStore(t, dir, 1000)
	if _, err := st3.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := captureState(t, st3, "books"); !reflect.DeepEqual(got, want2) {
		t.Errorf("second recovery differs:\n got %+v\nwant %+v", got, want2)
	}
}

func TestRecoverAfterGracefulClose(t *testing.T) {
	dir := t.TempDir()
	st := newPersistentStore(t, dir, 1000)
	loadBooks(t, st, "books")
	burst(t, st, "books")
	want := captureState(t, st, "books")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := newPersistentStore(t, dir, 1000)
	if _, err := st2.Recover(); err != nil {
		t.Fatal(err)
	}
	// Close wrote a final snapshot and emptied the journal.
	recs, _, err := mustManager(t, dir).ReplayJournal("books")
	if err != nil || len(recs) != 0 {
		t.Errorf("journal after Close: %d records, %v", len(recs), err)
	}
	if got := captureState(t, st2, "books"); !reflect.DeepEqual(got, want) {
		t.Errorf("state after graceful restart differs:\n got %+v\nwant %+v", got, want)
	}
}

func mustManager(t *testing.T, dir string) *persist.Manager {
	t.Helper()
	m, err := persist.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRecoverTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	st := newPersistentStore(t, dir, 1000)
	loadBooks(t, st, "books")
	burst(t, st, "books")
	// A torn tail drops the final acknowledged update, but the fsync
	// contract means a real torn record was never acknowledged; simulate by
	// capturing state before the last update.
	want := captureState(t, st, "books")
	mustUpdate(t, st, "books", api.UpdateRequest{Op: api.OpInsert, Parent: 0, Index: 0, Tag: "shelf"})

	path := filepath.Join(dir, "books.journal")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-4); err != nil {
		t.Fatal(err)
	}
	st2 := newPersistentStore(t, dir, 1000)
	if _, err := st2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := captureState(t, st2, "books"); !reflect.DeepEqual(got, want) {
		t.Errorf("state after torn-tail recovery differs:\n got %+v\nwant %+v", got, want)
	}
	// Appending after the repaired tail works and survives another restart.
	mustUpdate(t, st2, "books", api.UpdateRequest{Op: api.OpInsert, Parent: 0, Index: 0, Tag: "shelf"})
	want2 := captureState(t, st2, "books")
	st3 := newPersistentStore(t, dir, 1000)
	if _, err := st3.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := captureState(t, st3, "books"); !reflect.DeepEqual(got, want2) {
		t.Errorf("post-repair update lost:\n got %+v\nwant %+v", got, want2)
	}
}

func TestRecoverCorruptJournalFails(t *testing.T) {
	dir := t.TempDir()
	st := newPersistentStore(t, dir, 1000)
	loadBooks(t, st, "books")
	burst(t, st, "books")

	path := filepath.Join(dir, "books.journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the file — not a torn tail.
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := newPersistentStore(t, dir, 1000)
	if _, err := st2.Recover(); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("Recover = %v, want ErrCorrupt", err)
	}
}

func TestRecoverJournalWithoutSnapshotFails(t *testing.T) {
	dir := t.TempDir()
	j, err := mustManager(t, dir).CreateJournal("orphan")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	st := newPersistentStore(t, dir, 1000)
	if _, err := st.Recover(); !errors.Is(err, persist.ErrNoSnapshot) {
		t.Fatalf("Recover = %v, want ErrNoSnapshot", err)
	}
}

func TestRecoverSnapshotWithoutJournal(t *testing.T) {
	dir := t.TempDir()
	st := newPersistentStore(t, dir, 1000)
	loadBooks(t, st, "books")
	burst(t, st, "books")
	want := captureState(t, st, "books")
	// Lose the journal but keep the snapshot: only updates journaled after
	// the snapshot are lost, and here the snapshot is fresh (Close).
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "books.journal")); err != nil {
		t.Fatal(err)
	}
	st2 := newPersistentStore(t, dir, 1000)
	if _, err := st2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := captureState(t, st2, "books"); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot-only recovery differs:\n got %+v\nwant %+v", got, want)
	}
}

func TestCompactionTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	st := newPersistentStore(t, dir, 3)
	loadBooks(t, st, "books")
	for i := 0; i < 10; i++ {
		mustUpdate(t, st, "books", api.UpdateRequest{Op: api.OpInsert, Parent: 0, Index: 0, Tag: "shelf"})
	}
	want := captureState(t, st, "books")
	// Compaction is asynchronous; wait until the journal holds fewer
	// records than were applied.
	mgr := mustManager(t, dir)
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs, _, err := mgr.ReplayJournal("books")
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) < 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never compacted: %d records", len(recs))
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Let any in-flight compaction drain before the test dir is removed; no
	// further updates means no further triggers.
	d, err := st.get("books")
	if err != nil {
		t.Fatal(err)
	}
	for d.compacting.Load() {
		if time.Now().After(deadline) {
			t.Fatal("compaction never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st2 := newPersistentStore(t, dir, 3)
	if _, err := st2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := captureState(t, st2, "books"); !reflect.DeepEqual(got, want) {
		t.Errorf("state after compaction differs:\n got %+v\nwant %+v", got, want)
	}
}

func TestDeleteRemovesPersistedState(t *testing.T) {
	dir := t.TempDir()
	st := newPersistentStore(t, dir, 1000)
	loadBooks(t, st, "books")
	burst(t, st, "books")
	if err := st.Delete(context.Background(), "books"); err != nil {
		t.Fatal(err)
	}
	names, err := mustManager(t, dir).List()
	if err != nil || len(names) != 0 {
		t.Fatalf("persisted names after delete: %v, %v", names, err)
	}
	st2 := newPersistentStore(t, dir, 1000)
	recovered, err := st2.Recover()
	if err != nil || len(recovered) != 0 {
		t.Fatalf("Recover after delete: %v, %v", recovered, err)
	}
}

func TestReplaceResetsPersistedState(t *testing.T) {
	dir := t.TempDir()
	st := newPersistentStore(t, dir, 1000)
	loadBooks(t, st, "books")
	burst(t, st, "books")
	// Replace with a different document under the same name.
	if _, err := st.Load(context.Background(), "books", api.LoadRequest{XML: "<tiny><leaf/></tiny>"}); err != nil {
		t.Fatal(err)
	}
	st2 := newPersistentStore(t, dir, 1000)
	if _, err := st2.Recover(); err != nil {
		t.Fatal(err)
	}
	info, err := st2.Info("books")
	if err != nil {
		t.Fatal(err)
	}
	if info.Elements != 2 || info.Generation != 0 {
		t.Errorf("replacement not persisted: %+v", info)
	}
}

func TestUnsupportedSchemeHostedNonDurable(t *testing.T) {
	dir := t.TempDir()
	st := newPersistentStore(t, dir, 1000)
	info, err := st.Load(context.Background(), "static", api.LoadRequest{XML: sampleXML, Scheme: "prime-bottomup"})
	if err != nil {
		t.Fatal(err)
	}
	if info.Durable {
		t.Error("prime-bottomup document reported durable")
	}
	names, err := mustManager(t, dir).List()
	if err != nil || len(names) != 0 {
		t.Fatalf("persisted state for non-persistable scheme: %v, %v", names, err)
	}
	// Replacing a durable document with a non-persistable scheme clears the
	// old on-disk state so recovery cannot resurrect it.
	loadBooks(t, st, "books")
	if _, err := st.Load(context.Background(), "books", api.LoadRequest{XML: sampleXML, Scheme: "prime-decomposed"}); err != nil {
		t.Fatal(err)
	}
	if mustManager(t, dir).HasJournal("books") {
		t.Error("stale journal left after non-durable replacement")
	}
}

// TestRecoverAllSchemes runs one update plus crash recovery under every
// persistable scheme the server offers.
func TestRecoverAllSchemes(t *testing.T) {
	for _, scheme := range []string{"prime", "interval", "xrel", "prefix-1", "prefix-2", "dewey", "float", "compact"} {
		t.Run(scheme, func(t *testing.T) {
			dir := t.TempDir()
			st := newPersistentStore(t, dir, 1000)
			req := api.LoadRequest{XML: sampleXML, Scheme: scheme}
			if scheme == "prime" {
				req.TrackOrder = true
			}
			if scheme == "prefix-1" || scheme == "prefix-2" {
				req.OrderPreserving = true
			}
			if _, err := st.Load(context.Background(), "d", req); err != nil {
				t.Fatal(err)
			}
			mustUpdate(t, st, "d", api.UpdateRequest{Op: api.OpInsert, Parent: 1, Index: 1, Tag: "book"})
			mustUpdate(t, st, "d", api.UpdateRequest{Op: api.OpDelete, Target: 2})
			info, err := st.Info("d")
			if err != nil {
				t.Fatal(err)
			}
			q, err := st.Query(context.Background(), "d", "//book")
			if err != nil {
				t.Fatal(err)
			}
			st2 := newPersistentStore(t, dir, 1000)
			if _, err := st2.Recover(); err != nil {
				t.Fatal(err)
			}
			info2, err := st2.Info("d")
			if err != nil {
				t.Fatal(err)
			}
			if info2 != info {
				t.Errorf("info differs: %+v vs %+v", info2, info)
			}
			q2, err := st2.Query(context.Background(), "d", "//book")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(q2.Nodes, q.Nodes) {
				t.Errorf("labels differ after recovery:\n got %+v\nwant %+v", q2.Nodes, q.Nodes)
			}
		})
	}
}

// TestRecoverKeepsLabelWidth checks the maintained label width across a
// crash: the recovered document is rebuilt from a snapshot plus journal
// replay, and its MaxLabelBits must equal a full walk over its labels.
func TestRecoverKeepsLabelWidth(t *testing.T) {
	dir := t.TempDir()
	st := newPersistentStore(t, dir, 3) // compact mid-burst: snapshot + replay
	if _, err := st.Load(context.Background(), "books", api.LoadRequest{
		XML: sampleXML, TrackOrder: true, PowerOfTwoLeaves: true, ReservedPrimes: -1,
	}); err != nil {
		t.Fatal(err)
	}
	burst(t, st, "books")
	mustUpdate(t, st, "books", api.UpdateRequest{Op: api.OpInsert, Parent: 3, Index: 0, Tag: "note"})
	mustUpdate(t, st, "books", api.UpdateRequest{Op: api.OpWrap, Target: 4, Tag: "featured"})
	want, err := st.Info("books")
	if err != nil {
		t.Fatal(err)
	}

	st2 := newPersistentStore(t, dir, 3)
	if _, err := st2.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := st2.Info("books")
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxLabelBits != want.MaxLabelBits {
		t.Errorf("recovered MaxLabelBits = %d, before the crash %d", got.MaxLabelBits, want.MaxLabelBits)
	}
	d, err := st2.get("books")
	if err != nil {
		t.Fatal(err)
	}
	lab, ok := d.lab.(*prime.Labeling)
	if !ok {
		t.Fatalf("recovered labeling is %T, want *prime.Labeling", d.lab)
	}
	walk := 0
	for _, n := range xmltree.Elements(lab.Doc().Root) {
		walk = max(walk, lab.LabelOf(n).BitLen())
	}
	if lab.MaxLabelBits() != walk {
		t.Errorf("recovered MaxLabelBits = %d, full walk %d", lab.MaxLabelBits(), walk)
	}
	if err := lab.Check(); err != nil {
		t.Fatal(err)
	}
}
