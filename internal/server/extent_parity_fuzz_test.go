package server

// FuzzExtentJoinParity holds the extent planner to the divisibility
// nested-loop oracle end to end: two documents, identical content,
// identical fuzzed update storms (driving incremental extent patching
// through the live update path), then every axis queried on both. Any
// divergence — rows, order, counts, or which updates fail — is a planner
// or extent-maintenance bug.

import (
	"context"
	"testing"

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
		for name, planner := range map[string]string{"ext": "extent", "nl": "nestedloop"} {
			if _, err := st.Load(ctx, name, api.LoadRequest{
				XML: sampleXML, TrackOrder: true, Planner: planner,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if len(ops) > 16 {
			ops = ops[:16]
		}
		for i := 0; i+1 < len(ops); i += 2 {
			info, err := st.Info("ext")
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
			_, errE := st.Update(ctx, "ext", req)
			_, errN := st.Update(ctx, "nl", req)
			if (errE == nil) != (errN == nil) {
				t.Fatalf("op %d %+v: extent err %v, nestedloop err %v", i/2, req, errE, errN)
			}
		}
		for _, q := range extentParityQueries {
			re, errE := st.Query(ctx, "ext", q)
			rn, errN := st.Query(ctx, "nl", q)
			if (errE == nil) != (errN == nil) {
				t.Fatalf("%s: extent err %v, nestedloop err %v", q, errE, errN)
			}
			if errE != nil {
				continue
			}
			if re.Count != rn.Count || len(re.Nodes) != len(rn.Nodes) {
				t.Fatalf("%s: extent %d rows, nestedloop %d rows", q, re.Count, rn.Count)
			}
			for i := range re.Nodes {
				if re.Nodes[i] != rn.Nodes[i] {
					t.Fatalf("%s row %d: extent %+v, nestedloop %+v", q, i, re.Nodes[i], rn.Nodes[i])
				}
			}
			// Count mode must agree with its own planner's full answer.
			cm, err := st.QueryMode(ctx, "ext", q, api.QueryModeCount, false)
			if err != nil {
				t.Fatalf("%s count mode: %v", q, err)
			}
			if cm.Count != re.Count {
				t.Fatalf("%s: count mode %d, full query %d", q, cm.Count, re.Count)
			}
		}
	})
}
