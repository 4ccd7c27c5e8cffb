package server

import (
	"context"
	"sync"
	"testing"

	"primelabel/internal/server/api"
)

// TestParallelQueriesDuringBatchedUpdates races concurrent readers
// against batched and single updates on the same document, under both
// reindex paths: one document patches its element table incrementally, the
// other forces a full rebuild per op. Run with -race; the invariant beyond "no race, no
// error" is that //book counts only grow, since the writers only insert.
func TestParallelQueriesDuringBatchedUpdates(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	ctx := context.Background()
	st := NewStore(NewMetrics(), 16)
	for _, doc := range []struct {
		name    string
		noPatch bool
	}{{"patched", false}, {"rebuilt", true}} {
		if _, err := st.Load(ctx, doc.name, api.LoadRequest{XML: benchXML(2_000), TrackOrder: true}); err != nil {
			t.Fatal(err)
		}
		d, err := st.get(doc.name)
		if err != nil {
			t.Fatal(err)
		}
		d.noPatch = doc.noPatch
	}

	queries := []string{"//book", "/store//book", "//shelf//following::book", "//book//preceding::shelf"}
	const (
		readers     = 4
		queriesEach = 30
		batches     = 10
		batchSize   = 8
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
		// One writer per document: alternate batched and single inserts at
		// the end of the last shelf.
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
				if _, err := st.Update(ctx, name, appendBook); err != nil {
					t.Errorf("%s single %d: %v", name, i, err)
					return
				}
			}
		}(name, shelf)

		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(name string, r int) {
				defer wg.Done()
				for i := 0; i < queriesEach; i++ {
					q := queries[(r+i)%len(queries)]
					resp, err := st.Query(ctx, name, q)
					if err != nil {
						t.Errorf("%s reader %d %s: %v", name, r, q, err)
						return
					}
					if q == "//book" && resp.Count < initial[name] {
						t.Errorf("%s: //book count %d dropped below initial %d", name, resp.Count, initial[name])
						return
					}
				}
			}(name, r)
		}
	}
	wg.Wait()

	for _, name := range []string{"patched", "rebuilt"} {
		resp, err := st.Query(ctx, name, "//book")
		if err != nil {
			t.Fatal(err)
		}
		want := initial[name] + batches*(batchSize+1)
		if resp.Count != want {
			t.Errorf("%s: final //book count %d, want %d", name, resp.Count, want)
		}
	}
}
