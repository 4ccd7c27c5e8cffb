package rdb

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"primelabel/internal/datasets"
	"primelabel/internal/labeling/prime"
	"primelabel/internal/xmlparse"
	"primelabel/internal/xmltree"
)

// axisQueries exercises every axis the planner dispatches on, at both ends
// of the cost model (root-anchored tiny contexts and // broad contexts).
var axisQueries = []string{
	"/play//line",
	"//act//speech",
	"//act/scene",
	"/play/act/scene/speech",
	"//scene//speaker",
	"//speech/line",
	"//scene[2]//line",
	"//act[1]/scene[1]/speech",
	"//speaker/following::line",
	"//line/preceding::speaker",
	"//scene/following-sibling::scene",
	"//speech/preceding-sibling::speech",
	"//speaker/following::line[2]",
	"//line/preceding::speaker[3]",
	"//act[2]//following::scene",
	"//speech/following-sibling::speech[2]",
	"//line/preceding-sibling::line[1]",
}

// TestExtentColumnsMatchTreeTruth pins Depth and Extent against values
// derived directly from the tree: depth is the element-ancestor count, and
// extent the maximum row over the subtree's elements.
func TestExtentColumnsMatchTreeTruth(t *testing.T) {
	doc := datasets.Play(7, 3, 200)
	lab, err := (prime.Scheme{Opts: prime.Options{TrackOrder: true}}).Label(doc)
	if err != nil {
		t.Fatal(err)
	}
	tab := Build(lab)
	for id := 0; id < tab.Len(); id++ {
		n := tab.Node(id)
		wantDepth := 0
		for p := n.Parent; p != nil; p = p.Parent {
			if _, ok := tab.RowOf(p); ok {
				wantDepth++
			}
		}
		if got := tab.Depth(id); got != wantDepth {
			t.Fatalf("row %d (%s): Depth = %d, tree says %d", id, n.Name, got, wantDepth)
		}
		wantExtent := id
		for _, m := range xmltree.Elements(n) {
			if r, ok := tab.RowOf(m); ok && r > wantExtent {
				wantExtent = r
			}
		}
		if got := tab.Extent(id); got != wantExtent {
			t.Fatalf("row %d (%s): Extent = %d, tree says %d", id, n.Name, got, wantExtent)
		}
	}
}

// TestExtentJoinPlanModel pins the cost model's regions: tiny products keep
// the nested loop, small contexts over large candidate sets probe, and
// balanced large inputs merge.
func TestExtentJoinPlanModel(t *testing.T) {
	cases := []struct {
		nctx, ncands int
		want         string
	}{
		{1, 1, planNestedLoop},
		{16, 16, planNestedLoop},
		{1, 100000, planExtentProbe},
		{8, 4096, planExtentProbe},
		{5000, 5000, planExtentMerge},
		{4096, 64, planExtentMerge},
	}
	for _, c := range cases {
		if got := extentJoinPlan(c.nctx, c.ncands); got != c.want {
			t.Errorf("extentJoinPlan(%d, %d) = %s, want %s", c.nctx, c.ncands, got, c.want)
		}
	}
}

// TestExtentPlannerParityAllAxes holds the Extent planner to the
// divisibility nested-loop oracle on every axis: identical rows, identical
// order. It also asserts the EXPLAIN profile records extent-family plans
// where the cost model should pick them.
func TestExtentPlannerParityAllAxes(t *testing.T) {
	doc := datasets.Play(9, 4, 800)
	lab, err := (prime.Scheme{Opts: prime.Options{TrackOrder: true}}).Label(doc)
	if err != nil {
		t.Fatal(err)
	}
	nl := Build(lab)
	ext := Build(lab)
	ext.Plan = Extent
	ext.Warm()
	for _, q := range axisQueries {
		want, err := nl.ExecPathString(q)
		if err != nil {
			t.Fatal(err)
		}
		var ex Explain
		got, _, err := ext.ExecPathStringExplain(q, &ex)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: extent returned %d rows %v, oracle %d rows %v",
				q, len(got), got, len(want), want)
		}
		for _, s := range ex.Steps {
			if s.JoinPlan == "" {
				t.Fatalf("%s: step %s::%s recorded no join plan", q, s.Axis, s.Name)
			}
		}
	}
	// The broad descendant join has no positional predicate, so it must
	// collapse to the interval-cover semi-join.
	var ex Explain
	if _, _, err := ext.ExecPathStringExplain("//act//speech", &ex); err != nil {
		t.Fatal(err)
	}
	last := ex.Steps[len(ex.Steps)-1]
	if last.JoinPlan != planExtentCover {
		t.Fatalf("//act//speech join plan = %s, want %s", last.JoinPlan, planExtentCover)
	}
	// A positional predicate needs per-outer pairs, so the semi-join is off
	// the table and the cost model picks among the pair-producing operators.
	if _, _, err := ext.ExecPathStringExplain("//act//speech[2]", &ex); err != nil {
		t.Fatal(err)
	}
	last = ex.Steps[len(ex.Steps)-1]
	if last.JoinPlan != planExtentMerge && last.JoinPlan != planExtentProbe {
		t.Fatalf("//act//speech[2] join plan = %s, want a pair-producing extent plan", last.JoinPlan)
	}
	// Order axes likewise: the range cover without a positional predicate,
	// per-context range scans with one.
	for q, want := range map[string]string{
		"//speaker/following::line":        planExtentRangeCover,
		"//line/preceding::speaker":        planExtentRangeCover,
		"//speaker/following::line[2]":     planExtentRange,
		"//scene/following-sibling::scene": planExtentSibling,
	} {
		if _, _, err := ext.ExecPathStringExplain(q, &ex); err != nil {
			t.Fatal(err)
		}
		if last = ex.Steps[len(ex.Steps)-1]; last.JoinPlan != want {
			t.Fatalf("%s join plan = %s, want %s", q, last.JoinPlan, want)
		}
	}
}

// TestDescendantCoverMatchesProjection holds the semi-join to the full
// join's projection on a context set with nested subtrees (acts contain
// scenes), the case where the laminar-interval skip must not drop or
// double-emit candidates.
func TestDescendantCoverMatchesProjection(t *testing.T) {
	doc := datasets.Play(7, 3, 400)
	lab, err := (prime.Scheme{Opts: prime.Options{TrackOrder: true}}).Label(doc)
	if err != nil {
		t.Fatal(err)
	}
	tab := Build(lab)
	tab.Plan = Extent
	tab.Warm()
	ctx := append(RowSet{}, tab.Scan("act")...)
	ctx = append(ctx, tab.Scan("scene")...)
	sort.Ints(ctx)
	for _, tag := range []string{"line", "speech", "scene"} {
		cands := tab.Scan(tag)
		want := tab.stackMerge(ctx, cands, tab.extentContains, false).ProjectIn()
		got := tab.descendantCover(ctx, cands)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("descendantCover(ctx, //%s) = %d rows %v, projection %d rows %v",
				tag, len(got), got, len(want), want)
		}
	}
	if got := tab.descendantCover(ctx, nil); len(got) != 0 {
		t.Fatalf("cover of empty candidates = %v", got)
	}
}

// d8Table builds a warmed Extent table over k replicas of the paper's query
// corpus D8.
func d8Table(t testing.TB, k int) *Table {
	t.Helper()
	lab, err := (prime.Scheme{Opts: prime.Options{TrackOrder: true}}).Label(datasets.Replicate(datasets.D8(), k))
	if err != nil {
		t.Fatal(err)
	}
	tab := Build(lab)
	tab.Plan = Extent
	tab.Warm()
	return tab
}

// TestRangeCoverMatchesProjection holds the following/preceding semi-join
// to the projection of the pair-producing range join on D8, over contexts
// that nest (acts contain speeches), sit side by side, or are single rows.
func TestRangeCoverMatchesProjection(t *testing.T) {
	tab := d8Table(t, 1)
	mixed := append(tab.Scan("act"), tab.Scan("speech")...)
	sort.Ints(mixed)
	contexts := map[string]RowSet{
		"acts":          tab.Scan("act"),
		"acts+speeches": mixed,
		"one speech":    tab.Scan("speech")[7:8],
		"last line":     tab.Scan("line")[len(tab.Scan("line"))-1:],
		"root":          {0},
	}
	for name, ctx := range contexts {
		for _, tag := range []string{"line", "speech", "act", "play"} {
			cands := tab.Scan(tag)
			for _, following := range []bool{true, false} {
				want := tab.rangeJoin(ctx, cands, following).ProjectIn()
				got := tab.rangeCover(ctx, cands, following)
				if !slices.Equal(got, want) {
					t.Fatalf("%s, %s, following=%v: cover %d rows, projection %d rows",
						name, tag, following, len(got), len(want))
				}
			}
		}
	}
	if got := tab.rangeCover(nil, tab.Scan("line"), true); len(got) != 0 {
		t.Fatalf("cover of an empty context = %v", got)
	}
}

// TestExtentSiblingsMatchLabelJoin holds the column-driven sibling join to
// the label-driven one pair for pair, on contexts that include the root
// (no siblings) and rows whose siblings have descendants of the same tag
// at other depths.
func TestExtentSiblingsMatchLabelJoin(t *testing.T) {
	tab := d8Table(t, 1)
	for _, pair := range [][2]string{
		{"speech", "speech"}, {"act", "act"}, {"line", "line"},
		{"speaker", "line"}, {"play", "plays"}, {"plays", "plays"},
	} {
		ctx, cands := tab.Scan(pair[0]), tab.Scan(pair[1])
		ctx = append(RowSet{0}, ctx...)
		for _, following := range []bool{true, false} {
			want, err := tab.siblingJoin(ctx, cands, following)
			if err != nil {
				t.Fatal(err)
			}
			got := tab.extentSiblings(ctx, cands, following)
			if !slices.Equal(got, want) {
				t.Fatalf("%s→%s following=%v: extent %d pairs, label %d pairs",
					pair[0], pair[1], following, len(got), len(want))
			}
		}
	}
}

// TestExtentQueryAllocsIndependentOfSize is the allocation guard on the
// cache-miss path: on a warmed Extent table the executor reads the tag
// index in place and the semi-joins emit one slice, so the number of
// allocations a query makes must not grow with the document.
func TestExtentQueryAllocsIndependentOfSize(t *testing.T) {
	small, large := d8Table(t, 1), d8Table(t, 4)
	for _, q := range []string{
		"//line",
		"//act[1]//following::speech",
		"//speech[2]//preceding::line",
	} {
		allocs := func(tab *Table) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := tab.ExecPathString(q); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(small), allocs(large); a != b {
			t.Errorf("%s: %v allocations at 1 replica, %v at 4", q, a, b)
		}
	}
}

// TestExecPathNeverReturnsTheIndex pins the aliasing rule: a result equal
// to a tag list is a copy, so a caller's writes cannot reach the index.
func TestExecPathNeverReturnsTheIndex(t *testing.T) {
	tab := d8Table(t, 1)
	want := tab.Scan("line")
	got, err := tab.ExecPathString("//line")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] = -1
	}
	if again, _ := tab.ExecPathString("//line"); !slices.Equal(again, want) {
		t.Fatal("writing to a query result changed the tag index")
	}
}

// TestExtentOrderAxesNeedWarm pins the rangeJoin gate: an unwarmed table
// (ordered unknown) and a labeling without order tracking must both take
// the order-scan path, so order-axis errors surface exactly as before.
func TestExtentOrderAxesNeedWarm(t *testing.T) {
	doc := datasets.Play(5, 2, 60)
	lab, err := (prime.Scheme{}).Label(doc) // no TrackOrder
	if err != nil {
		t.Fatal(err)
	}
	nl := Build(lab)
	ext := Build(lab)
	ext.Plan = Extent
	ext.Warm() // warms, but no row gets a rank: ordered stays false
	_, wantErr := nl.ExecPathString("//speech/following::line")
	_, gotErr := ext.ExecPathString("//speech/following::line")
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("order-axis error parity broken: oracle err=%v, extent err=%v", wantErr, gotErr)
	}
	if wantErr == nil {
		t.Fatal("expected an order-unsupported error from a scheme without order tracking")
	}
}

// TestPatchStormExtents drives a randomized insert/wrap/delete storm
// through the incremental patch path, holding the patched table to a fresh
// Build+Warm via Diff after every op (which compares the depth and extent
// columns row by row) and to the divisibility oracle on every axis at
// regular intervals.
func TestPatchStormExtents(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 4; i++ {
		b.WriteString("<a>x<b><c>y</c><d/></b><b><c/></b></a>")
	}
	b.WriteString("</r>")
	doc, err := xmlparse.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	lab, err := prime.Scheme{Opts: prime.Options{TrackOrder: true, SCChunk: 5}}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	tab := Build(lab)
	tab.Plan = Extent
	tab.Warm()

	rng := rand.New(rand.NewSource(7))
	tags := []string{"a", "b", "c", "d"}
	queries := []string{
		"//a//c", "//b/c", "/r/a/b", "//a/following::b",
		"//c/preceding::a", "//b/following-sibling::b",
	}
	for op := 0; op < 150; op++ {
		elems := xmltree.Elements(doc.Root)
		switch k := rng.Intn(10); {
		case k < 6: // insert a fresh childless element
			parent := elems[rng.Intn(len(elems))]
			n := xmltree.NewElement(tags[rng.Intn(len(tags))])
			idx := rng.Intn(len(parent.Children) + 1)
			if _, err := lab.InsertChildAt(parent, idx, n); err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
			pos, ok := tab.InsertPos(n)
			if !ok {
				t.Fatalf("op %d: InsertPos failed", op)
			}
			rank, err := lab.OrderOf(n)
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			tab.PatchInsert(pos, n, rank, lab.SCTable().LastShift().Delta)
		case k < 8: // wrap an existing subtree
			target := elems[1+rng.Intn(len(elems)-1)] // never the root
			pos, ok := tab.RowOf(target)
			if !ok {
				t.Fatalf("op %d: wrap target not in table", op)
			}
			w := xmltree.NewElement(tags[rng.Intn(len(tags))])
			if _, err := lab.WrapNode(target, w); err != nil {
				t.Fatalf("op %d wrap: %v", op, err)
			}
			rank, err := lab.OrderOf(w)
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			tab.PatchInsert(pos, w, rank, lab.SCTable().LastShift().Delta)
		default: // delete a subtree, keeping the document from emptying out
			if len(elems) < 12 {
				continue
			}
			target := elems[1+rng.Intn(len(elems)-1)]
			pos, ok := tab.RowOf(target)
			if !ok {
				t.Fatalf("op %d: delete target not in table", op)
			}
			removed := xmltree.Elements(target)
			if err := lab.Delete(target); err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
			tab.PatchDelete(pos, removed)
		}

		ref := Build(lab)
		ref.Warm()
		if err := tab.Diff(ref); err != nil {
			t.Fatalf("op %d: patched table diverged from rebuild: %v", op, err)
		}
		if op%10 == 9 {
			oracle := Build(lab) // NestedLoop divisibility joins
			for _, q := range queries {
				want, err := oracle.ExecPathString(q)
				if err != nil {
					t.Fatalf("op %d %s: %v", op, q, err)
				}
				got, err := tab.ExecPathString(q)
				if err != nil {
					t.Fatalf("op %d %s: %v", op, q, err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("op %d %s: extent %v, oracle %v", op, q, got, want)
				}
			}
		}
	}
}

// TestStackJoinEmitsSorted pins the satellite fix: StackJoin's pairs come
// out (Out, In)-sorted straight from the merge, byte-identical to the
// nested loop's output order, with no trailing sort.
func TestStackJoinEmitsSorted(t *testing.T) {
	doc := datasets.Play(8, 3, 400)
	lab, err := (prime.Scheme{Opts: prime.Options{TrackOrder: true}}).Label(doc)
	if err != nil {
		t.Fatal(err)
	}
	tab := Build(lab)
	outer := tab.Scan("scene")
	inner := tab.Scan("line")
	got := tab.StackJoin(outer, inner)
	want := tab.nlJoin(outer, inner, tab.AncestorPred(), nil)
	if len(got) != len(want) {
		t.Fatalf("StackJoin emitted %d pairs, nested loop %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d: stack %v, nested loop %v", i, got[i], want[i])
		}
	}
}
