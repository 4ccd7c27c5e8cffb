package server

// FuzzExtentJoinParity holds labeld's extent planner to the divisibility
// nested-loop oracle end to end: two served documents, identical content,
// identical fuzzed update storms — one patching its element table in place
// through the live update path, one rebuilding it per op — then every axis
// queried on both. Both must accept and fail the same updates, and each
// must answer every query exactly as an rdb.NestedLoop table built fresh
// over its labeling after the storm (which also checks the ordered fact
// and the structural columns again). Any divergence — rows, order, counts,
// or which updates fail — is a planner or extent-maintenance bug.

import (
	"context"
	"slices"
	"testing"

	"primelabel/internal/rdb"
	"primelabel/internal/server/api"
)

var extentParityQueries = []string{
	"//book",
	"//shelf/book",
	"/store//book",
	"//shelf//book[2]",
	"//shelf//following::book",
	"//book//preceding::shelf",
	"//book/following-sibling::book",
	"//book/preceding-sibling::book",
	"//book/following-sibling::book[2]",
	"//shelf//following::book[1]",
	"//book//preceding::shelf[2]",
}

func FuzzExtentJoinParity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x11})
	f.Add([]byte{0, 0x11, 1, 0x02, 2, 0x03})
	f.Add([]byte{2, 0x08, 0, 0x00, 1, 0x01, 0, 0x42})
	f.Add([]byte{0, 0x61, 0, 0x61, 2, 0x02, 0, 0x10, 1, 0x04})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ctx := context.Background()
		st := NewStore(NewMetrics(), 0)
		docs := []string{"patched", "rebuilt"}
		for _, name := range docs {
			if _, err := st.Load(ctx, name, api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
				t.Fatal(err)
			}
		}
		rebuilt, err := st.get("rebuilt")
		if err != nil {
			t.Fatal(err)
		}
		rebuilt.noPatch = true
		if len(ops) > 16 {
			ops = ops[:16]
		}
		for i := 0; i+1 < len(ops); i += 2 {
			info, err := st.Info("patched")
			if err != nil {
				t.Fatal(err)
			}
			n := info.Elements
			arg := int(ops[i+1])
			var req api.UpdateRequest
			switch ops[i] % 3 {
			case 0:
				req = api.UpdateRequest{Op: api.OpInsert, Parent: arg % n, Index: arg / 16 % 4, Tag: "book"}
			case 1:
				req = api.UpdateRequest{Op: api.OpWrap, Target: arg % n, Tag: "shelf"}
			case 2:
				if n < 2 {
					continue // only the root left; nothing deletable
				}
				req = api.UpdateRequest{Op: api.OpDelete, Target: 1 + arg%(n-1)}
			}
			_, errP := st.Update(ctx, "patched", req)
			_, errR := st.Update(ctx, "rebuilt", req)
			if (errP == nil) != (errR == nil) {
				t.Fatalf("op %d %+v: patched err %v, rebuilt err %v", i/2, req, errP, errR)
			}
		}
		first := map[string]*api.QueryResponse{} // the patched document's answers
		for _, name := range docs {
			d, err := st.get(name)
			if err != nil {
				t.Fatal(err)
			}
			oracle := rdb.Build(d.lab) // NestedLoop divisibility joins
			if err := d.table.Diff(oracle); err != nil {
				t.Fatalf("%s: served table diverged from a fresh build: %v", name, err)
			}
			for _, q := range extentParityQueries {
				want, wantErr := oracle.ExecPathString(q)
				got, err := st.Query(ctx, name, q)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("%s %s: served err %v, oracle err %v", name, q, err, wantErr)
				}
				if err != nil {
					continue
				}
				if got.Count != len(want) || len(got.Nodes) != len(want) {
					t.Fatalf("%s %s: served %d rows, oracle %d rows", name, q, got.Count, len(want))
				}
				for i, row := range want {
					if got.Nodes[i] != d.nodeRefs(rdb.RowSet{row})[0] {
						t.Fatalf("%s %s row %d: served %+v, oracle row %d", name, q, i, got.Nodes[i], row)
					}
				}
				if p, ok := first[q]; ok && !slices.Equal(p.Nodes, got.Nodes) {
					t.Fatalf("%s: patched and rebuilt documents answer differently", q)
				}
				first[q] = got
				// Count mode must agree with the full answer.
				cm, err := st.QueryMode(ctx, name, q, api.QueryModeCount, false)
				if err != nil {
					t.Fatalf("%s %s count mode: %v", name, q, err)
				}
				if cm.Count != got.Count {
					t.Fatalf("%s %s: count mode %d, full query %d", name, q, cm.Count, got.Count)
				}
			}
		}
	})
}
