package server

// Tests for the batched update pipeline: batch-vs-sequential equivalence,
// partial-failure semantics, incremental-reindex equivalence against full
// rebuilds, group-commit coalescing under concurrency, and whole-batch crash
// atomicity (recovery lands on a record boundary, never inside a batch).

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"primelabel/internal/rdb"
	"primelabel/internal/server/api"
	"primelabel/internal/server/trace"
)

// batchOps is the mixed op sequence both batch tests apply: inserts at both
// ends, a wrap, a delete, a top-level insert — the same shape as burst.
func batchOps() []api.UpdateRequest {
	return []api.UpdateRequest{
		{Op: api.OpInsert, Parent: 1, Index: 0, Tag: "book"},
		{Op: api.OpInsert, Parent: 1, Index: 3, Tag: "book"},
		{Op: api.OpWrap, Target: 2, Tag: "featured"},
		{Op: api.OpDelete, Target: 4},
		{Op: api.OpInsert, Parent: 0, Index: 1, Tag: "shelf"},
	}
}

func loadTracked(t *testing.T, st *Store, name string) {
	t.Helper()
	if _, err := st.Load(context.Background(), name, api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchEquivalentToSequentialSingles(t *testing.T) {
	single := NewStore(NewMetrics(), 16)
	batched := NewStore(NewMetrics(), 16)
	loadTracked(t, single, "books")
	loadTracked(t, batched, "books")

	var wantResults []api.BatchOpResult
	var wantRelabeled int
	for _, op := range batchOps() {
		resp := mustUpdate(t, single, "books", op)
		wantRelabeled += resp.Relabeled
		wantResults = append(wantResults, api.BatchOpResult{Relabeled: resp.Relabeled, Node: resp.Node})
	}
	resp, err := batched.UpdateBatch(context.Background(), "books", api.BatchUpdateRequest{Ops: batchOps()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failed != -1 {
		t.Fatalf("Failed = %d, want -1", resp.Failed)
	}
	if resp.Relabeled != wantRelabeled {
		t.Errorf("batch Relabeled = %d, singles totalled %d", resp.Relabeled, wantRelabeled)
	}

	want := captureState(t, single, "books")
	got := captureState(t, batched, "books")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("batch state differs from sequential singles:\n got %+v\nwant %+v", got, want)
	}
	if resp.Generation != want.info.Generation {
		t.Errorf("batch generation %d, singles reached %d", resp.Generation, want.info.Generation)
	}
	// Node ids reported by the batch are resolved against the final state;
	// singles report them against each intermediate state. Ops whose node
	// survives un-shifted must agree — here that is every op but the wrap
	// (the delete removed the row after it).
	if len(resp.Results) != len(wantResults) {
		t.Fatalf("Results count %d, want %d", len(resp.Results), len(wantResults))
	}
	for i, r := range resp.Results {
		if r.Relabeled != wantResults[i].Relabeled {
			t.Errorf("op %d Relabeled = %d, single says %d", i, r.Relabeled, wantResults[i].Relabeled)
		}
	}
}

func TestBatchPartialFailure(t *testing.T) {
	st := NewStore(NewMetrics(), 16)
	loadTracked(t, st, "books")
	before, _ := st.Info("books")

	ops := []api.UpdateRequest{
		{Op: api.OpInsert, Parent: 1, Index: 0, Tag: "book"},
		{Op: api.OpInsert, Parent: 999, Index: 0, Tag: "book"}, // bad node id
		{Op: api.OpInsert, Parent: 1, Index: 0, Tag: "book"},   // never attempted
	}
	resp, err := st.UpdateBatch(context.Background(), "books", api.BatchUpdateRequest{Ops: ops})
	if err != nil {
		t.Fatalf("partially applied batch must answer 200: %v", err)
	}
	if resp.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", resp.Failed)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("Results = %d entries, want 2 (third op never attempted)", len(resp.Results))
	}
	if resp.Results[0].Error != "" || resp.Results[1].Error == "" {
		t.Errorf("error placement wrong: %+v", resp.Results)
	}
	// A validation failure mutates nothing: only op 0 advanced the state.
	if resp.Generation != before.Generation+1 {
		t.Errorf("generation = %d, want %d", resp.Generation, before.Generation+1)
	}

	// A first-op validation failure applies nothing and fails the request,
	// exactly like a failing single update.
	if _, err := st.UpdateBatch(context.Background(), "books",
		api.BatchUpdateRequest{Ops: []api.UpdateRequest{{Op: "bogus"}}}); err == nil {
		t.Error("first-op failure did not fail the request")
	}

	// Validation of the batch envelope.
	if _, err := st.UpdateBatch(context.Background(), "books", api.BatchUpdateRequest{}); err == nil {
		t.Error("empty batch accepted")
	}
	gen := uint64(1)
	if _, err := st.UpdateBatch(context.Background(), "books", api.BatchUpdateRequest{
		Ops: []api.UpdateRequest{{Op: api.OpInsert, Parent: 0, Tag: "x", Generation: &gen}},
	}); err == nil {
		t.Error("per-op generation pin accepted")
	}
	stale := uint64(0)
	if _, err := st.UpdateBatch(context.Background(), "books", api.BatchUpdateRequest{
		Ops:        []api.UpdateRequest{{Op: api.OpInsert, Parent: 0, Tag: "x"}},
		Generation: &stale,
	}); err == nil {
		t.Error("stale batch-level pin accepted")
	}
}

func TestUpdateFailureCounters(t *testing.T) {
	st := NewStore(NewMetrics(), 16)
	loadTracked(t, st, "books")
	gen0, _ := st.Info("books")

	if _, err := st.Update(context.Background(), "books",
		api.UpdateRequest{Op: api.OpInsert, Parent: 999, Tag: "x"}); err == nil {
		t.Fatal("bad parent accepted")
	}
	if got := st.metrics.updates.Load(); got != 0 {
		t.Errorf("updates counter = %d after a failed op, want 0", got)
	}
	if got := st.metrics.updateFailures.Load(); got != 1 {
		t.Errorf("updateFailures = %d, want 1", got)
	}
	// A validation failure must not advance the generation: a client
	// retrying with its pinned generation gets no spurious conflict.
	pin := gen0.Generation
	if _, err := st.Update(context.Background(), "books",
		api.UpdateRequest{Op: api.OpInsert, Parent: 1, Index: 0, Tag: "book", Generation: &pin}); err != nil {
		t.Fatalf("pinned retry after validation failure: %v", err)
	}
	if got := st.metrics.updates.Load(); got != 1 {
		t.Errorf("updates counter = %d, want 1", got)
	}
}

// TestIncrementalReindexEquivalence drives a random op mix through the
// incremental patch path and, after every op, diffs the patched table
// against a fresh Build of the same labeling. A twin store with the patch
// path disabled applies the same ops so response-level equivalence is
// checked too. Every scheme patches: it runs for prime with order tracking
// at dense and spaced order numbers, and for every probeSchemes
// configuration, and no op may fall back to a full rebuild.
func TestIncrementalReindexEquivalence(t *testing.T) {
	configs := []struct {
		name string
		req  api.LoadRequest
	}{
		{"spacing=0", api.LoadRequest{TrackOrder: true}},
		{"spacing=8", api.LoadRequest{TrackOrder: true, OrderSpacing: 8}},
	}
	for _, sc := range append(configs, probeSchemes...) {
		t.Run(sc.name, func(t *testing.T) {
			patched := NewStore(NewMetrics(), 16)
			full := NewStore(NewMetrics(), 16)
			load := sc.req
			load.XML = sampleXML
			for _, st := range []*Store{patched, full} {
				if _, err := st.Load(context.Background(), "doc", load); err != nil {
					t.Fatal(err)
				}
			}
			fd, err := full.get("doc")
			if err != nil {
				t.Fatal(err)
			}
			fd.noPatch = true
			pd, err := patched.get("doc")
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 80; i++ {
				n := pd.table.Len()
				var op api.UpdateRequest
				switch r := rng.Intn(10); {
				case r < 6 || n < 4:
					op = api.UpdateRequest{Op: api.OpInsert, Parent: rng.Intn(n), Index: rng.Intn(4), Tag: "x"}
				case r < 8:
					op = api.UpdateRequest{Op: api.OpWrap, Target: 1 + rng.Intn(n-1), Tag: "w"}
				default:
					op = api.UpdateRequest{Op: api.OpDelete, Target: 1 + rng.Intn(n-1)}
				}
				pr, perr := patched.Update(context.Background(), "doc", op)
				fr, ferr := full.Update(context.Background(), "doc", op)
				if (perr != nil) != (ferr != nil) {
					t.Fatalf("op %d %+v: patched err %v, full err %v", i, op, perr, ferr)
				}
				if pr != fr {
					t.Fatalf("op %d %+v: patched %+v, full %+v", i, op, pr, fr)
				}
				ref := rdb.Build(pd.lab)
				ref.Plan = pd.table.Plan
				if err := pd.table.Diff(ref); err != nil {
					t.Fatalf("op %d %+v: %v", i, op, err)
				}
			}
			if got := patched.metrics.reindexFull.Load(); got != 0 {
				t.Errorf("patched store fell back to full reindex %d times", got)
			}
			if got := patched.metrics.reindexIncr.Load(); got != 80 {
				t.Errorf("incremental reindex count = %d, want 80", got)
			}
			if got := full.metrics.reindexIncr.Load(); got != 0 {
				t.Errorf("noPatch store took the incremental path %d times", got)
			}
		})
	}
}

// TestUpdateTracesSplitRelabelAndReindex holds single updates and batches
// to one trace shape on a patching and on a noPatch document: exactly one
// relabel span (the labeling mutations) and one reindex span (the table
// patches or rebuilds), both non-zero. A batch books its per-op totals.
func TestUpdateTracesSplitRelabelAndReindex(t *testing.T) {
	st := NewStore(NewMetrics(), 16)
	for _, noPatch := range []bool{false, true} {
		name := fmt.Sprintf("doc-%v", noPatch)
		loadTracked(t, st, name)
		d, err := st.get(name)
		if err != nil {
			t.Fatal(err)
		}
		d.noPatch = noPatch
		stages := func(run func(ctx context.Context) error) map[string][]time.Duration {
			t.Helper()
			tr := trace.New("t", "update")
			if err := run(trace.NewContext(context.Background(), tr)); err != nil {
				t.Fatal(err)
			}
			out := map[string][]time.Duration{}
			for _, sp := range tr.Spans() {
				out[sp.Stage] = append(out[sp.Stage], sp.Duration)
			}
			return out
		}
		single := stages(func(ctx context.Context) error {
			_, err := st.Update(ctx, name, api.UpdateRequest{Op: api.OpInsert, Parent: 1, Index: 1, Tag: "book"})
			return err
		})
		batch := stages(func(ctx context.Context) error {
			_, err := st.UpdateBatch(ctx, name, api.BatchUpdateRequest{Ops: batchOps()})
			return err
		})
		for kind, got := range map[string]map[string][]time.Duration{"single": single, "batch": batch} {
			for _, stage := range []string{trace.StageRelabel, trace.StageReindex} {
				if len(got[stage]) != 1 || got[stage][0] <= 0 {
					t.Errorf("noPatch=%v %s update: %s spans %v, want one non-zero span", noPatch, kind, stage, got[stage])
				}
			}
		}
	}
}

// TestConcurrentBatchAndSingleUpdates mixes batch updates, single updates
// and readers against one durable document; meant to run under -race. It
// then verifies the patched table against a fresh build and crash-recovers
// the journal to check durability of the interleaved stream.
func TestConcurrentBatchAndSingleUpdates(t *testing.T) {
	dir := t.TempDir()
	st := newPersistentStore(t, dir, 1<<30) // no compaction mid-test
	loadTracked(t, st, "books")

	// Row 6 is the last shelf: every insert lands inside its subtree, so
	// the id stays valid across generations without re-resolving.
	const (
		shelf      = 6
		batchers   = 4
		singlers   = 4
		readers    = 4
		perBatcher = 10
		batchLen   = 8
		perSingler = 20
	)
	var wg sync.WaitGroup
	errs := make(chan error, batchers+singlers+readers)
	for w := 0; w < batchers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perBatcher; i++ {
				req := api.BatchUpdateRequest{Ops: make([]api.UpdateRequest, batchLen)}
				for k := range req.Ops {
					req.Ops[k] = api.UpdateRequest{Op: api.OpInsert, Parent: shelf, Index: 0, Tag: "b"}
				}
				if resp, err := st.UpdateBatch(context.Background(), "books", req); err != nil {
					errs <- err
					return
				} else if resp.Failed != -1 {
					errs <- fmt.Errorf("batch stopped at op %d", resp.Failed)
					return
				}
			}
		}()
	}
	for w := 0; w < singlers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSingler; i++ {
				if _, err := st.Update(context.Background(), "books",
					api.UpdateRequest{Op: api.OpInsert, Parent: shelf, Index: 0, Tag: "s"}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := st.Query(context.Background(), "books", "//b"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const wantOps = batchers*perBatcher*batchLen + singlers*perSingler
	info, err := st.Info("books")
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != wantOps {
		t.Errorf("generation = %d, want %d (one per applied op)", info.Generation, wantOps)
	}
	if got := st.metrics.updates.Load(); got != wantOps {
		t.Errorf("updates counter = %d, want %d", got, wantOps)
	}
	d, err := st.get("books")
	if err != nil {
		t.Fatal(err)
	}
	ref := rdb.Build(d.lab)
	ref.Plan = d.table.Plan
	if err := d.table.Diff(ref); err != nil {
		t.Errorf("patched table diverged from fresh build: %v", err)
	}

	// Crash-recover: the journaled stream must reproduce the live state.
	want := captureState(t, st, "books")
	st2 := newPersistentStore(t, dir, 1<<30)
	if _, err := st2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := captureState(t, st2, "books"); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state differs from live state")
	}
}

// TestBatchCrashAtomicity truncates a journal holding a mix of batch and
// single records at every byte offset and recovers from each prefix: the
// recovered generation must sit on a record boundary — a batch is either
// fully replayed or fully dropped, never split.
func TestBatchCrashAtomicity(t *testing.T) {
	dir := t.TempDir()
	st := newPersistentStore(t, dir, 1<<30)
	loadTracked(t, st, "books")
	if _, err := st.UpdateBatch(context.Background(), "books", api.BatchUpdateRequest{Ops: []api.UpdateRequest{
		{Op: api.OpInsert, Parent: 1, Index: 0, Tag: "b"},
		{Op: api.OpInsert, Parent: 1, Index: 0, Tag: "b"},
		{Op: api.OpInsert, Parent: 1, Index: 0, Tag: "b"},
	}}); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, st, "books", api.UpdateRequest{Op: api.OpInsert, Parent: 0, Index: 0, Tag: "shelf"})
	if _, err := st.UpdateBatch(context.Background(), "books", api.BatchUpdateRequest{Ops: []api.UpdateRequest{
		{Op: api.OpWrap, Target: 2, Tag: "w"},
		{Op: api.OpDelete, Target: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	// Record boundaries: gen 0 (snapshot), 3 (batch), 4 (single), 6 (batch).
	allowed := map[uint64]bool{0: true, 3: true, 4: true, 6: true}

	journal, err := os.ReadFile(filepath.Join(dir, "books.journal"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "books.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(journal); cut++ {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, "books.snap"), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, "books.journal"), journal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st2 := newPersistentStore(t, cdir, 1<<30)
		if _, err := st2.Recover(); err != nil {
			t.Fatalf("cut at %d/%d: %v", cut, len(journal), err)
		}
		info, err := st2.Info("books")
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if !allowed[info.Generation] {
			t.Fatalf("cut at %d/%d recovered generation %d — inside a batch", cut, len(journal), info.Generation)
		}
	}
}
