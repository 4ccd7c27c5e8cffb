package rdb

import (
	"math/rand"
	"slices"
	"testing"

	"primelabel/internal/datasets"
	"primelabel/internal/labeling"
	"primelabel/internal/labeling/interval"
	"primelabel/internal/labeling/prefix"
	"primelabel/internal/labeling/prime"
	"primelabel/internal/xmltree"
	"primelabel/internal/xpath"
)

func schemes() map[string]labeling.Scheme {
	return map[string]labeling.Scheme{
		"prime":    prime.Scheme{Opts: prime.Options{TrackOrder: true}},
		"interval": interval.Scheme{Variant: interval.XISS},
		"prefix2":  prefix.Scheme{Variant: prefix.Prefix2, OrderPreserving: true},
	}
}

func buildTable(t *testing.T, s labeling.Scheme, doc *xmltree.Document) *Table {
	t.Helper()
	lab, err := s.Label(doc)
	if err != nil {
		t.Fatal(err)
	}
	return Build(lab)
}

func playDoc() *xmltree.Document {
	return datasets.Play(5, 4, 600)
}

func TestBuildAndScan(t *testing.T) {
	doc := playDoc()
	tab := buildTable(t, prime.Scheme{}, doc)
	if tab.Len() != 600 {
		t.Errorf("table rows = %d, want 600", tab.Len())
	}
	acts := tab.Scan("act")
	if len(acts) != 4 {
		t.Errorf("acts = %d, want 4", len(acts))
	}
	for i := 1; i < len(acts); i++ {
		if acts[i] <= acts[i-1] {
			t.Error("scan not in document order")
		}
	}
	if got := len(tab.Scan("*")); got != 600 {
		t.Errorf("Scan(*) = %d rows", got)
	}
	if got := tab.Scan("nope"); len(got) != 0 {
		t.Errorf("Scan of unknown tag = %v, want empty", got)
	}
}

func TestNLJoinMatchesTreeTruth(t *testing.T) {
	doc := playDoc()
	for name, s := range schemes() {
		work := doc.Clone()
		tab := buildTable(t, s, work)
		acts := tab.Scan("act")
		speeches := tab.Scan("speech")
		pairs := tab.NLJoin(acts, speeches, tab.AncestorPred())
		// Ground truth: count (act, speech) ancestor pairs by tree walk.
		truth := 0
		for _, a := range xmltree.ElementsByName(work.Root, "act") {
			truth += len(xmltree.ElementsByName(a, "speech"))
		}
		// Every speech is inside exactly one act here, minus any directly
		// under the act? ElementsByName includes descendants only, fine.
		if len(pairs) != truth {
			t.Errorf("%s: NLJoin pairs = %d, want %d", name, len(pairs), truth)
		}
	}
}

func TestStackJoinEqualsNLJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	tags := []string{"a", "b"}
	for trial := 0; trial < 10; trial++ {
		root := xmltree.NewElement("r")
		nodes := []*xmltree.Node{root}
		for i := 1; i < 80; i++ {
			p := nodes[rng.Intn(len(nodes))]
			c := xmltree.NewElement(tags[rng.Intn(len(tags))])
			_ = p.AppendChild(c)
			nodes = append(nodes, c)
		}
		doc := xmltree.NewDocument(root)
		tab := buildTable(t, prime.Scheme{}, doc)
		as, bs := tab.Scan("a"), tab.Scan("b")
		nl := tab.NLJoin(as, bs, tab.AncestorPred())
		st := tab.StackJoin(as, bs)
		if len(nl) != len(st) {
			t.Fatalf("trial %d: NLJoin %d pairs, StackJoin %d", trial, len(nl), len(st))
		}
		// NLJoin emits in (outer, inner) order; StackJoin sorts the same way.
		for i := range nl {
			if nl[i] != st[i] {
				t.Fatalf("trial %d: pair %d differs: %v vs %v", trial, i, nl[i], st[i])
			}
		}
	}
}

// ExecPath must agree with the reference XPath evaluator for the paper's
// query shapes, for every scheme.
func TestExecPathMatchesXPath(t *testing.T) {
	doc := playDoc()
	queries := []string{
		"/play//act[4]",
		"/play//act//persona",
		"/play//line",
		"/play//speech",
		"//act[3]//following::act",
		"//act//following-sibling::act[2]",
		"//speech[4]//preceding::line",
		"//act[2]//line",
		"/play/act/scene/speech",
		"//scene//preceding-sibling::scene",
	}
	for name, s := range schemes() {
		work := doc.Clone()
		tab := buildTable(t, s, work)
		for _, q := range queries {
			want, err := xpath.TreeEvalString(work, q)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := tab.ExecPathString(q)
			if err != nil {
				t.Fatalf("%s %s: %v", name, q, err)
			}
			got := tab.Nodes(rows)
			if len(got) != len(want) {
				t.Errorf("%s %s: %d rows, want %d", name, q, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s %s: row %d differs", name, q, i)
					break
				}
			}
		}
	}
}

func TestExecPathEdgeCases(t *testing.T) {
	doc := playDoc()
	tab := buildTable(t, prime.Scheme{Opts: prime.Options{TrackOrder: true}}, doc)
	if _, err := tab.ExecPath(xpath.Query{}); err == nil {
		t.Error("empty query should fail")
	}
	rows, err := tab.ExecPathString("/wrong")
	if err != nil || rows != nil {
		t.Errorf("wrong root: %v rows, err %v", rows, err)
	}
	rows, err = tab.ExecPathString("/play//nothing")
	if err != nil || rows != nil {
		t.Errorf("no match: %v rows, err %v", rows, err)
	}
	if _, err := tab.ExecPathString("///"); err == nil {
		t.Error("bad syntax should fail")
	}
	// Document-level positional step.
	rows, err = tab.ExecPathString("//act[2]")
	if err != nil || len(rows) != 1 {
		t.Errorf("//act[2]: %d rows, err %v", len(rows), err)
	}
}

func TestProjectIn(t *testing.T) {
	ps := Pairs{{1, 5}, {2, 5}, {1, 3}, {3, 9}}
	got := ps.ProjectIn()
	want := RowSet{3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("ProjectIn = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ProjectIn = %v, want %v", got, want)
		}
	}
}

func TestNthPerOuter(t *testing.T) {
	ps := Pairs{{1, 7}, {1, 3}, {1, 9}, {2, 4}}
	got := nthPerOuter(ps, 2)
	if len(got) != 1 || got[0] != (Pair{1, 7}) {
		t.Errorf("nthPerOuter = %v, want [{1 7}]", got)
	}
	if got := nthPerOuter(ps, 1); len(got) != 2 {
		t.Errorf("nthPerOuter(1) = %v", got)
	}
	if got := nthPerOuter(ps, 5); len(got) != 0 {
		t.Errorf("nthPerOuter(5) = %v", got)
	}
}

// TestExecStatsZeroAllocPath double-checks ExecPath (the stats-less
// wrapper) still works and agrees with ExecPathStats.
func TestExecStatsZeroAllocPath(t *testing.T) {
	doc := datasets.Play(4, 3, 300)
	lab, err := (prime.Scheme{Opts: prime.Options{TrackOrder: true}}).Label(doc)
	if err != nil {
		t.Fatal(err)
	}
	tab := Build(lab)
	q, err := xpath.Parse("//act//line")
	if err != nil {
		t.Fatal(err)
	}
	a, err := tab.ExecPath(q)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := tab.ExecPathStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Errorf("ExecPath and ExecPathStats disagree: %v vs %v", a, b)
	}
}
