package persist

import (
	"bytes"
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"primelabel/internal/labeling"
	"primelabel/internal/labeling/codec"
	"primelabel/internal/labeling/prime"
	"primelabel/internal/server/api"
	"primelabel/internal/xmlparse"
)

const sampleXML = `<store><shelf><book/><book/></shelf><shelf><book/></shelf></store>`

func sampleLabeling(t *testing.T) labeling.Labeling {
	t.Helper()
	tree, err := xmlparse.ParseDocument(strings.NewReader(sampleXML), xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lab, err := prime.Scheme{Opts: prime.Options{TrackOrder: true}}.Label(tree)
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

func openManager(t *testing.T) *Manager {
	t.Helper()
	m, err := Open(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// labBytes renders a labeling through the codec so two labelings can be
// compared for byte-exact equality of persisted state.
func labBytes(t *testing.T, lab labeling.Labeling) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := codec.Marshal(lab, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	m := openManager(t)
	lab := sampleLabeling(t)
	meta := Meta{Name: "books", Planner: "stacktree", Generation: 7, Relabeled: 12}
	size, err := m.WriteSnapshot(context.Background(), meta, lab)
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Fatalf("snapshot size = %d", size)
	}
	got, back, err := m.LoadSnapshot("books")
	if err != nil {
		t.Fatal(err)
	}
	if got != meta {
		t.Errorf("meta = %+v, want %+v", got, meta)
	}
	if !bytes.Equal(labBytes(t, lab), labBytes(t, back)) {
		t.Error("restored labeling state differs from original")
	}
}

func TestSnapshotReplaceIsAtomic(t *testing.T) {
	m := openManager(t)
	lab := sampleLabeling(t)
	if _, err := m.WriteSnapshot(context.Background(), Meta{Name: "d", Planner: "stacktree", Generation: 1}, lab); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteSnapshot(context.Background(), Meta{Name: "d", Planner: "stacktree", Generation: 2}, lab); err != nil {
		t.Fatal(err)
	}
	meta, _, err := m.LoadSnapshot("d")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 2 {
		t.Errorf("generation = %d, want 2", meta.Generation)
	}
	if _, err := os.Stat(m.snapPath("d") + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("tmp file left behind: %v", err)
	}
}

func TestLoadSnapshotMissing(t *testing.T) {
	m := openManager(t)
	if _, _, err := m.LoadSnapshot("nope"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
}

func TestLoadSnapshotCorrupt(t *testing.T) {
	m := openManager(t)
	lab := sampleLabeling(t)
	if _, err := m.WriteSnapshot(context.Background(), Meta{Name: "d", Planner: "stacktree"}, lab); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(m.snapPath("d"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte deep in the codec payload.
	data[len(data)-5] ^= 0xff
	if err := os.WriteFile(m.snapPath("d"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.LoadSnapshot("d"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if err := os.WriteFile(m.snapPath("d"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.LoadSnapshot("d"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage err = %v, want ErrCorrupt", err)
	}
}

func testRecords() []Record {
	return []Record{
		{Gen: 1, Relabeled: 2, Count: 2, Req: api.UpdateRequest{Op: api.OpInsert, Parent: 0, Index: 1, Tag: "x"}},
		{Gen: 2, Relabeled: 2, Count: 0, Req: api.UpdateRequest{Op: api.OpDelete, Target: 3}},
		{Gen: 3, Relabeled: 5, Count: 3, Failed: true, Req: api.UpdateRequest{Op: api.OpWrap, Target: 1, Tag: "w"}},
	}
}

func TestJournalAppendReplay(t *testing.T) {
	m := openManager(t)
	j, err := m.CreateJournal("d")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	want := testRecords()
	for _, rec := range want {
		stats, err := j.Append(context.Background(), rec)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Bytes <= frameHeaderLen || stats.Seq == 0 {
			t.Fatalf("stats = %+v", stats)
		}
		gs, err := j.Commit(context.Background(), stats.Seq)
		if err != nil {
			t.Fatal(err)
		}
		if !gs.Leader || gs.Frames != 1 {
			t.Fatalf("commit stats = %+v", gs)
		}
	}
	got, validEnd, err := m.ReplayJournal("d")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("records = %+v, want %+v", got, want)
	}
	fi, err := os.Stat(m.journalPath("d"))
	if err != nil {
		t.Fatal(err)
	}
	if validEnd != fi.Size() {
		t.Errorf("validEnd = %d, file size %d", validEnd, fi.Size())
	}
}

func TestJournalMissing(t *testing.T) {
	m := openManager(t)
	recs, validEnd, err := m.ReplayJournal("none")
	if err != nil || len(recs) != 0 || validEnd != 0 {
		t.Fatalf("replay missing journal = %v, %d, %v", recs, validEnd, err)
	}
}

// appendAll writes records to a fresh journal and returns the journal path
// and the file size after each record (index 0 = after the magic header).
func appendAll(t *testing.T, m *Manager, name string, recs []Record) (string, []int64) {
	t.Helper()
	j, err := m.CreateJournal(name)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	path := m.journalPath(name)
	sizes := []int64{int64(len(journalMagic))}
	for _, rec := range recs {
		if _, err := j.Append(context.Background(), rec); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
	}
	return path, sizes
}

func TestJournalTornTail(t *testing.T) {
	m := openManager(t)
	want := testRecords()
	path, sizes := appendAll(t, m, "d", want)
	// Truncate mid-way through the final record: a torn write.
	cut := (sizes[2] + sizes[3]) / 2
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	got, validEnd, err := m.ReplayJournal("d")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[:2]) {
		t.Errorf("records = %+v, want first two", got)
	}
	if validEnd != sizes[2] {
		t.Errorf("validEnd = %d, want %d", validEnd, sizes[2])
	}
	// Torn mid-header: a few trailing garbage bytes.
	if err := os.WriteFile(path, append(append([]byte{}, journalMagic...), 0x01, 0x02, 0x03), 0o644); err != nil {
		t.Fatal(err)
	}
	got, validEnd, err = m.ReplayJournal("d")
	if err != nil || len(got) != 0 || validEnd != int64(len(journalMagic)) {
		t.Fatalf("torn header tail: %v, %d, %v", got, validEnd, err)
	}
}

func TestJournalCorruptMiddle(t *testing.T) {
	m := openManager(t)
	path, sizes := appendAll(t, m, "d", testRecords())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the FIRST record: valid frames follow, so this
	// cannot be a torn write and must be reported as corruption.
	data[sizes[1]-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.ReplayJournal("d"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestJournalBadMagic(t *testing.T) {
	m := openManager(t)
	if err := os.WriteFile(m.journalPath("d"), []byte("NOTAMAGIC-------"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.ReplayJournal("d"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestJournalReset(t *testing.T) {
	m := openManager(t)
	j, err := m.CreateJournal("d")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Append(context.Background(), testRecords()[0]); err != nil {
		t.Fatal(err)
	}
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	recs, validEnd, err := m.ReplayJournal("d")
	if err != nil || len(recs) != 0 || validEnd != int64(len(journalMagic)) {
		t.Fatalf("after reset: %v, %d, %v", recs, validEnd, err)
	}
	// Appends continue to work after a reset.
	if _, err := j.Append(context.Background(), testRecords()[1]); err != nil {
		t.Fatal(err)
	}
	recs, _, err = m.ReplayJournal("d")
	if err != nil || len(recs) != 1 {
		t.Fatalf("after reset+append: %v, %v", recs, err)
	}
}

func TestOpenJournalAtTruncatesTornTail(t *testing.T) {
	m := openManager(t)
	want := testRecords()
	path, sizes := appendAll(t, m, "d", want)
	if err := os.Truncate(path, sizes[3]-3); err != nil {
		t.Fatal(err)
	}
	recs, validEnd, err := m.ReplayJournal("d")
	if err != nil || len(recs) != 2 {
		t.Fatalf("replay: %v, %v", recs, err)
	}
	j, err := m.OpenJournalAt("d", validEnd)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	extra := Record{Gen: 3, Req: api.UpdateRequest{Op: api.OpInsert, Tag: "z"}}
	if _, err := j.Append(context.Background(), extra); err != nil {
		t.Fatal(err)
	}
	recs, _, err = m.ReplayJournal("d")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, append(want[:2:2], extra)) {
		t.Errorf("records after reopen = %+v", recs)
	}
}

func TestListRemoveHasJournal(t *testing.T) {
	m := openManager(t)
	lab := sampleLabeling(t)
	if _, err := m.WriteSnapshot(context.Background(), Meta{Name: "a", Planner: "stacktree"}, lab); err != nil {
		t.Fatal(err)
	}
	j, err := m.CreateJournal("b")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	names, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"a", "b"}) {
		t.Errorf("names = %v", names)
	}
	if m.HasJournal("a") || !m.HasJournal("b") {
		t.Errorf("HasJournal: a=%v b=%v", m.HasJournal("a"), m.HasJournal("b"))
	}
	if err := m.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("a"); err != nil { // idempotent
		t.Fatal(err)
	}
	names, err = m.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"b"}) {
		t.Errorf("names after remove = %v", names)
	}
}

// TestJournalGroupCommitConcurrent has many goroutines append-then-commit
// concurrently: every commit must succeed, the elected leaders' fsyncs must
// jointly cover every frame exactly once, and replay must see every record.
func TestJournalGroupCommitConcurrent(t *testing.T) {
	m := openManager(t)
	j, err := m.CreateJournal("books")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	const writers = 16
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		frames  int
		leaders int
	)
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stats, err := j.Append(context.Background(), Record{Gen: uint64(w + 1)})
			if err != nil {
				errs <- err
				return
			}
			gs, err := j.Commit(context.Background(), stats.Seq)
			if err != nil {
				errs <- err
				return
			}
			if gs.Leader {
				mu.Lock()
				frames += gs.Frames
				leaders++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if frames != writers {
		t.Errorf("leader fsyncs covered %d frames, want %d (each exactly once)", frames, writers)
	}
	if leaders < 1 || leaders > writers {
		t.Errorf("leaders = %d, want within [1,%d]", leaders, writers)
	}
	recs, _, err := m.ReplayJournal("books")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers {
		t.Errorf("replayed %d records, want %d", len(recs), writers)
	}
}

// TestJournalBatchRecordRoundTrip persists a batch record (Ops populated)
// and replays it intact.
func TestJournalBatchRecordRoundTrip(t *testing.T) {
	m := openManager(t)
	j, err := m.CreateJournal("books")
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Gen: 3, Relabeled: 9, Ops: []OpRecord{
		{Req: api.UpdateRequest{Op: api.OpInsert, Parent: 1, Tag: "b"}, Count: 4},
		{Req: api.UpdateRequest{Op: api.OpDelete, Target: 2}, Count: 0},
		{Req: api.UpdateRequest{Op: api.OpWrap, Target: 1, Tag: "w"}, Count: 5, Failed: true},
	}}
	stats, err := j.Append(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Commit(context.Background(), stats.Seq); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := m.ReplayJournal("books")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !reflect.DeepEqual(recs[0], rec) {
		t.Errorf("replayed %+v, want %+v", recs, rec)
	}
}

// TestRecordShapes checks that NewRecord puts one op in the single-op
// fields and more in Ops, and that OpList reads every shape back,
// including a one-op record in Ops as older servers wrote it.
func TestRecordShapes(t *testing.T) {
	ops := []OpRecord{
		{Req: api.UpdateRequest{Op: api.OpInsert, Parent: 1, Tag: "b"}, Count: 4},
		{Req: api.UpdateRequest{Op: api.OpWrap, Target: 1, Tag: "w"}, Count: 5, Failed: true},
	}
	one := NewRecord(3, 9, ops[1:])
	want := Record{Gen: 3, Relabeled: 9, Req: ops[1].Req, Count: 5, Failed: true}
	if !reflect.DeepEqual(one, want) {
		t.Errorf("NewRecord of one op = %+v, want %+v", one, want)
	}
	two := NewRecord(4, 13, ops)
	if want := (Record{Gen: 4, Relabeled: 13, Ops: ops}); !reflect.DeepEqual(two, want) {
		t.Errorf("NewRecord of two ops = %+v, want %+v", two, want)
	}
	old := Record{Gen: 3, Relabeled: 9, Ops: ops[1:]}
	for _, c := range []struct {
		rec  Record
		want []OpRecord
	}{{one, ops[1:]}, {two, ops}, {old, ops[1:]}} {
		if got := c.rec.OpList(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%+v.OpList() = %+v, want %+v", c.rec, got, c.want)
		}
	}
}

// TestJournalCommitAfterClose: commits raced by Close must fail rather than
// report durability they cannot guarantee.
func TestJournalCommitAfterClose(t *testing.T) {
	m := openManager(t)
	j, err := m.CreateJournal("books")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := j.Append(context.Background(), Record{Gen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Commit(context.Background(), stats.Seq); err == nil {
		t.Error("commit after close reported success")
	}
}
