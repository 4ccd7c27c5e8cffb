package server

// Relation probes are answered from the element table's extent and depth
// columns and from row order. These tests hold them to each labeling's own
// IsAncestor/IsParent/Before for every registered scheme, before and after
// update storms on both reindex paths, pin which schemes are ordered, and
// check that state persisted by older servers — the frozen overlay, other
// planners — still loads and answers identically.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"primelabel/internal/labeling/prime"
	"primelabel/internal/server/api"
	"primelabel/internal/server/persist"
	"primelabel/internal/xmlparse"
	"primelabel/internal/xmltree"
)

// probeSchemes is every registered scheme, with each order option on and
// off where the scheme has one.
var probeSchemes = []struct {
	name string
	req  api.LoadRequest
}{
	{"prime", api.LoadRequest{Scheme: "prime"}},
	{"prime-order", api.LoadRequest{Scheme: "prime", TrackOrder: true}},
	{"prime-bottomup", api.LoadRequest{Scheme: "prime-bottomup"}},
	{"prime-decomposed", api.LoadRequest{Scheme: "prime-decomposed"}},
	{"interval", api.LoadRequest{Scheme: "interval"}},
	{"xrel", api.LoadRequest{Scheme: "xrel"}},
	{"prefix-1", api.LoadRequest{Scheme: "prefix-1"}},
	{"prefix-1-order", api.LoadRequest{Scheme: "prefix-1", OrderPreserving: true}},
	{"prefix-2", api.LoadRequest{Scheme: "prefix-2"}},
	{"prefix-2-order", api.LoadRequest{Scheme: "prefix-2", OrderPreserving: true}},
	{"dewey", api.LoadRequest{Scheme: "dewey"}},
	{"float", api.LoadRequest{Scheme: "float"}},
	{"compact", api.LoadRequest{Scheme: "compact"}},
}

// labelAnswer is what the document's labeling itself says about (a, b),
// wrapped the way Relation reports a labeling error.
func labelAnswer(d *document, kind string, a, b *xmltree.Node) (bool, error) {
	switch kind {
	case api.RelAncestor:
		return d.lab.IsAncestor(a, b), nil
	case api.RelParent:
		return d.lab.IsParent(a, b), nil
	default:
		ok, err := d.lab.Before(a, b)
		if err != nil {
			return false, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return ok, nil
	}
}

// checkProbeParity asks Relation every kind of probe for every (a, b) and
// requires the labeling's own answer: the same result, or the same error
// text.
func checkProbeParity(t *testing.T, st *Store, name string) {
	t.Helper()
	d, err := st.get(name)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n := d.table.Len()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for _, kind := range []string{api.RelAncestor, api.RelParent, api.RelBefore} {
				want, wantErr := labelAnswer(d, kind, d.table.Node(a), d.table.Node(b))
				resp, err := st.Relation(ctx, name, api.RelationRequest{Kind: kind, A: a, B: b})
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s %s(%d, %d): error %v, labeling says %v", name, kind, a, b, err, wantErr)
				}
				if err == nil && resp.Result != want {
					t.Fatalf("%s %s(%d, %d) = %v, labeling says %v", name, kind, a, b, resp.Result, want)
				}
			}
		}
	}
}

// probeStorm applies a seeded mix of inserts, wraps and leaf deletes. Ops a
// scheme rejects are skipped; the document must still answer probes as its
// labeling does.
func probeStorm(t *testing.T, st *Store, name string, seed int64) {
	t.Helper()
	d, err := st.get(name)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	tags := []string{"book", "title", "note"}
	for i := 0; i < 40; i++ {
		n := d.table.Len()
		var req api.UpdateRequest
		switch op := rng.Intn(6); {
		case op < 3:
			req = api.UpdateRequest{Op: api.OpInsert, Parent: rng.Intn(n), Index: rng.Intn(4), Tag: tags[rng.Intn(len(tags))]}
		case op < 5:
			req = api.UpdateRequest{Op: api.OpWrap, Target: rng.Intn(n), Tag: tags[rng.Intn(len(tags))]}
		default:
			// A row's extent is its subtree's preorder-last row: a leaf.
			req = api.UpdateRequest{Op: api.OpDelete, Target: d.table.Extent(rng.Intn(n))}
		}
		_, _ = st.Update(ctx, name, req) // a rejected op is part of the storm
	}
}

// TestRelationProbeParity holds every registered scheme's probes to its
// labeling on sampleXML, then again after the same update storm on a
// document that patches its table in place and one that rebuilds it.
func TestRelationProbeParity(t *testing.T) {
	st := NewStore(NewMetrics(), 16)
	ctx := context.Background()
	for i, sc := range probeSchemes {
		req := sc.req
		req.XML = sampleXML
		for _, noPatch := range []bool{false, true} {
			name := fmt.Sprintf("%s-%v", sc.name, noPatch)
			if _, err := st.Load(ctx, name, req); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			d, err := st.get(name)
			if err != nil {
				t.Fatal(err)
			}
			d.noPatch = noPatch
			checkProbeParity(t, st, name)
			probeStorm(t, st, name, int64(100+i))
			checkProbeParity(t, st, name)
		}
	}
}

// TestOrderedPerScheme pins which schemes serve from an ordered table —
// row order is the labeling's document order — and that the fact survives
// an update storm on both reindex paths. Only schemes with order numbers
// (labeling.Orderer) qualify: prime with track_order, interval, xrel and
// compact.
func TestOrderedPerScheme(t *testing.T) {
	ordered := map[string]bool{"prime-order": true, "interval": true, "xrel": true, "compact": true}
	st := NewStore(NewMetrics(), 16)
	ctx := context.Background()
	for i, sc := range probeSchemes {
		req := sc.req
		req.XML = sampleXML
		for _, noPatch := range []bool{false, true} {
			name := fmt.Sprintf("%s-%v", sc.name, noPatch)
			if _, err := st.Load(ctx, name, req); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			d, err := st.get(name)
			if err != nil {
				t.Fatal(err)
			}
			d.noPatch = noPatch
			if got := d.table.Ordered(); got != ordered[sc.name] {
				t.Fatalf("%s: Ordered() = %v at load, want %v", name, got, ordered[sc.name])
			}
			probeStorm(t, st, name, int64(100+i))
			if got := d.table.Ordered(); got != ordered[sc.name] {
				t.Fatalf("%s: Ordered() = %v after the storm, want %v", name, got, ordered[sc.name])
			}
		}
	}
}

// TestOldPlannerSnapshotsServeExtent recovers, and installs on a follower,
// snapshots whose meta names a planner labeld no longer serves. The meta's
// planner is ignored: every answer and probe matches a freshly loaded
// document's byte for byte, and EXPLAIN shows the same extent join plans.
func TestOldPlannerSnapshotsServeExtent(t *testing.T) {
	ctx := context.Background()
	fresh := NewStore(NewMetrics(), 16)
	if _, err := fresh.Load(ctx, "books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	wantPlans := joinPlans(t, fresh)
	want := oldStateAnswers(t, fresh, "books", extentParityQueries)
	for _, planner := range []string{"stacktree", "nestedloop"} {
		dir := t.TempDir()
		mgr, err := persist.Open(dir, true)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := xmlparse.ParseString(sampleXML)
		if err != nil {
			t.Fatal(err)
		}
		lab, err := prime.Scheme{Opts: prime.Options{TrackOrder: true}}.Label(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.WriteSnapshot(ctx, persist.Meta{Name: "books", Planner: planner}, lab); err != nil {
			t.Fatal(err)
		}
		image, err := mgr.ReadSnapshotRaw("books")
		if err != nil {
			t.Fatal(err)
		}

		recovered := newPersistentStore(t, dir, 1000)
		t.Cleanup(func() { recovered.Close() })
		if names, err := recovered.Recover(); err != nil || fmt.Sprint(names) != "[books]" {
			t.Fatalf("%s: recovered %v, %v", planner, names, err)
		}
		follower := newPersistentStore(t, t.TempDir(), 1000)
		t.Cleanup(func() { follower.Close() })
		if _, err := follower.InstallSnapshot(ctx, "books", image); err != nil {
			t.Fatalf("%s: install: %v", planner, err)
		}
		for how, st := range map[string]*Store{"recovered": recovered, "installed": follower} {
			if got := joinPlans(t, st); !slices.Equal(got, wantPlans) {
				t.Errorf("%s snapshot %s: join plans %v, fresh load %v", planner, how, got, wantPlans)
			}
			got := oldStateAnswers(t, st, "books", extentParityQueries)
			if !slices.Equal(got, want) {
				t.Errorf("%s snapshot %s: answers differ from a fresh load", planner, how)
			}
		}
	}
}

// joinPlans runs every extentParityQueries query on the "books" document
// with EXPLAIN and returns the step join plans, failing the test on any
// plan that is not the document scan or an extent operator.
func joinPlans(t *testing.T, st *Store) []string {
	t.Helper()
	var plans []string
	for _, q := range extentParityQueries {
		resp, err := st.QueryExplain(context.Background(), "books", q)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range resp.Explain.Steps {
			if s.JoinPlan != "scan" && !strings.HasPrefix(s.JoinPlan, "extent-") {
				t.Errorf("%s: step %s::%s joined by %q, not an extent plan", q, s.Axis, s.Name, s.JoinPlan)
			}
			plans = append(plans, q+" "+s.JoinPlan)
		}
	}
	return plans
}

// oldStateDir holds state written by the server before the frozen compact
// overlay was removed: a document recovered with its snapshot meta carrying
// "frozen": true, and the answers that server gave for it.
const oldStateDir = "testdata/frozen-v1"

// oldStateQueries are the queries the old server's answers were recorded
// for.
var oldStateQueries = []string{
	"//book",
	"//*",
	"/store/shelf",
	"//book/title",
	"//shelf//title",
	"//book/following-sibling::book",
	"//title/preceding::book",
	"//shelf/book[2]",
}

// oldStateAnswers renders, in the recorded format, the answer to every
// query in nodes, count and exists mode and to every relation probe over
// the document's node ids. Stores compared through it must have run the
// same queries before, since node-mode answers report whether the cache
// served them.
func oldStateAnswers(t *testing.T, st *Store, name string, queries []string) []string {
	t.Helper()
	ctx := context.Background()
	info, err := st.Info(name)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, q := range queries {
		resp, err := st.Query(ctx, name, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("query %s: %s", q, b))
	}
	for _, kind := range []string{api.RelAncestor, api.RelParent, api.RelBefore} {
		for a := 0; a < info.Elements; a++ {
			for b := 0; b < info.Elements; b++ {
				resp, err := st.Relation(ctx, name, api.RelationRequest{Kind: kind, A: a, B: b})
				if err != nil {
					out = append(out, fmt.Sprintf("%s %d %d: err %v", kind, a, b, err))
					continue
				}
				out = append(out, fmt.Sprintf("%s %d %d: %v gen %d", kind, a, b, resp.Result, resp.Generation))
			}
		}
	}
	for _, q := range queries {
		for _, mode := range []string{api.QueryModeCount, api.QueryModeExists} {
			resp, err := st.QueryMode(ctx, name, q, mode, false)
			if err != nil {
				t.Fatal(err)
			}
			resp.Cached = false
			b, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("query %s %s: %s", mode, q, b))
		}
	}
	return out
}

// checkOldStateAnswers compares a store's answers for the old document with
// the ones the old server recorded.
func checkOldStateAnswers(t *testing.T, st *Store) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(oldStateDir, "books.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := oldStateAnswers(t, st, "books", oldStateQueries)
	if len(got) != len(want) {
		t.Fatalf("%d answers, the old server recorded %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("answer %d differs:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// TestFrozenSnapshotRecovers recovers a data directory whose snapshot was
// written while the document served from the frozen overlay. The meta's
// "frozen" field is ignored, and every answer matches the old server's.
func TestFrozenSnapshotRecovers(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"books.snap", "books.journal"} {
		b, err := os.ReadFile(filepath.Join(oldStateDir, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st := newPersistentStore(t, dir, 1000)
	t.Cleanup(func() { st.Close() })
	names, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names) != "[books]" {
		t.Fatalf("recovered %v, want [books]", names)
	}
	checkOldStateAnswers(t, st)
}

// TestFrozenSnapshotInstallsOnFollower ships the same snapshot image to a
// follower, as a primary running the old server would have.
func TestFrozenSnapshotInstallsOnFollower(t *testing.T) {
	image, err := os.ReadFile(filepath.Join(oldStateDir, "books.snap"))
	if err != nil {
		t.Fatal(err)
	}
	st := newPersistentStore(t, t.TempDir(), 1000)
	t.Cleanup(func() { st.Close() })
	gen, err := st.InstallSnapshot(context.Background(), "books", image)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 5 {
		t.Errorf("installed generation %d, want 5", gen)
	}
	checkOldStateAnswers(t, st)
}
