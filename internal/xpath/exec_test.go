package xpath_test

// The executor tests: every query runs on an rdb element table — the one
// executor the library and labeld share — under both join planners, and
// must return node for node what the tree-walking reference TreeEval
// returns. They live in an external package because rdb imports xpath.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"primelabel/internal/datasets"
	"primelabel/internal/labeling"
	"primelabel/internal/labeling/interval"
	"primelabel/internal/labeling/prefix"
	"primelabel/internal/labeling/prime"
	"primelabel/internal/rdb"
	"primelabel/internal/xmlparse"
	"primelabel/internal/xmltree"
	"primelabel/internal/xpath"
)

// planners are the join planners every query runs under: the
// label-predicate nested loop and the extent planner the library and
// labeld serve.
var planners = []struct {
	name string
	plan rdb.Planner
}{
	{"nestedloop", rdb.NestedLoop},
	{"extent", rdb.Extent},
}

// newTable builds an element table over lab that runs plan.
func newTable(lab labeling.Labeling, plan rdb.Planner) *rdb.Table {
	tab := rdb.Build(lab)
	tab.Plan = plan
	return tab
}

// exec runs query on tab and resolves the matching rows to nodes.
func exec(tab *rdb.Table, query string) ([]*xmltree.Node, error) {
	rows, err := tab.ExecPathString(query)
	if err != nil {
		return nil, err
	}
	return tab.Nodes(rows), nil
}

// fixture builds a small play document:
//
//	play
//	├── title
//	├── act (1)
//	│   ├── scene ├ speech ├ speaker, line, line
//	│   └── scene └ speech └ speaker, line
//	└── act (2)
//	    └── scene └ speech └ speaker, line, line, line
func fixture(t *testing.T) *xmltree.Document {
	t.Helper()
	mk := func(name string, kids ...*xmltree.Node) *xmltree.Node {
		n := xmltree.NewElement(name)
		for _, k := range kids {
			if err := n.AppendChild(k); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	doc := xmltree.NewDocument(mk("play",
		mk("title"),
		mk("act",
			mk("scene", mk("speech", mk("speaker"), mk("line"), mk("line"))),
			mk("scene", mk("speech", mk("speaker"), mk("line"))),
		),
		mk("act",
			mk("scene", mk("speech", mk("speaker"), mk("line"), mk("line"), mk("line"))),
		),
	))
	return doc
}

// schemes cover ordered tables (prime with order tracking, interval, xrel:
// order is row order) and unordered ones (order-preserving prefix-2, dewey:
// order joins ask the labeling's Before).
func schemes() map[string]labeling.Scheme {
	return map[string]labeling.Scheme{
		"prime":    prime.Scheme{Opts: prime.Options{TrackOrder: true}},
		"prime+o2": prime.Scheme{Opts: prime.Options{TrackOrder: true, PowerOfTwoLeaves: true, ReservedPrimes: 4}},
		"interval": interval.Scheme{Variant: interval.XISS},
		"xrel":     interval.Scheme{Variant: interval.XRel},
		"prefix2":  prefix.Scheme{Variant: prefix.Prefix2, OrderPreserving: true},
		"dewey":    prefix.DeweyScheme{},
	}
}

var fixtureQueries = []struct {
	query string
	count int
}{
	{"/play", 1},
	{"/play/act", 2},
	{"/play//line", 6},
	{"/play//act[2]//line", 3},
	{"//speech", 3},
	{"//scene[1]/speech", 1},
	{"/play/act[1]/scene[2]//line", 1},
	{"//act[1]//following::line", 3},
	{"//line[1]//preceding::speaker", 1}, // the document's first line follows one speaker
	{"//act//following-sibling::act", 1},
	{"//scene//preceding-sibling::scene", 1},
	{"//title//following::speech", 3},
	{"/play//bogus", 0},
	{"/wrongroot", 0},
	{"//*", 19},
	{"/play/*", 3},
}

func TestFixtureCountsTreeEval(t *testing.T) {
	doc := fixture(t)
	if _, err := xpath.TreeEval(doc, xpath.Query{}); err == nil {
		t.Error("empty query should fail (tree)")
	}
	for _, q := range fixtureQueries {
		ns, err := xpath.TreeEvalString(doc, q.query)
		if err != nil {
			t.Fatalf("%s: %v", q.query, err)
		}
		if len(ns) != q.count {
			t.Errorf("TreeEval(%s) = %d nodes, want %d", q.query, len(ns), q.count)
		}
	}
}

// checkParity runs every query on a table per planner over lab and holds
// each answer to TreeEval over doc.
func checkParity(t *testing.T, name string, lab labeling.Labeling, doc *xmltree.Document, queries []string) {
	t.Helper()
	for _, pl := range planners {
		tab := newTable(lab, pl.plan)
		for _, q := range queries {
			want, err := xpath.TreeEvalString(doc, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec(tab, q)
			if err != nil {
				t.Fatalf("%s %s %s: %v", name, pl.name, q, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s %s %s: %d nodes, reference %d, or a node differs", name, pl.name, q, len(got), len(want))
			}
		}
	}
}

func TestLabelEvalMatchesTreeEvalOnFixture(t *testing.T) {
	var queries []string
	for _, q := range fixtureQueries {
		queries = append(queries, q.query)
	}
	for name, s := range schemes() {
		doc := fixture(t)
		lab, err := s.Label(doc)
		if err != nil {
			t.Fatal(err)
		}
		checkParity(t, name, lab, doc, queries)
	}
}

// randTree grows an n-element tree over tags a, b, c under root r, each
// element attached to a uniformly chosen earlier one.
func randTree(rng *rand.Rand, n int) *xmltree.Document {
	tags := []string{"a", "b", "c"}
	root := xmltree.NewElement("r")
	nodes := []*xmltree.Node{root}
	for i := 1; i < n; i++ {
		p := nodes[rng.Intn(len(nodes))]
		c := xmltree.NewElement(tags[rng.Intn(len(tags))])
		_ = p.AppendChild(c)
		nodes = append(nodes, c)
	}
	return xmltree.NewDocument(root)
}

// Property test: on random documents, every scheme's table agrees with the
// reference for a battery of queries under both planners.
func TestPropertyEvalAgreesOnRandomDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	queries := []string{
		"/r//a", "/r//b[2]", "//a/b", "//a//c", "//b//following::a",
		"//c//preceding::b", "//a//following-sibling::a", "//b//preceding-sibling::c",
		"//a[1]//b[1]", "/r/*", "//*[3]",
	}
	for trial := 0; trial < 8; trial++ {
		doc := randTree(rng, 60)
		for name, s := range schemes() {
			work := doc.Clone()
			lab, err := s.Label(work)
			if err != nil {
				t.Fatal(err)
			}
			checkParity(t, fmt.Sprintf("trial %d %s", trial, name), lab, work, queries)
		}
	}
}

// The paper's Q1-style query on generated plays: //act[4] per play.
func TestActFourPerPlay(t *testing.T) {
	corpus := datasets.Replicate(datasets.Play(7, 5, 400), 3)
	lab, err := (prime.Scheme{Opts: prime.Options{TrackOrder: true}}).Label(corpus)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range planners {
		got, err := exec(newTable(lab, pl.plan), "/corpus/play//act[4]")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Errorf("%s: act[4] per play over 3 replicas = %d nodes, want 3", pl.name, len(got))
		}
	}
}

const storeXML = `<store>
  <book id="b1" lang="en"><title>Dune</title></book>
  <book id="b2"><title>Dune</title></book>
  <book id="b3" lang="de"><title>Faust</title></book>
  <cd id="c1" lang="en"><title>Kind of Blue</title></cd>
</store>`

func TestFilterEvaluation(t *testing.T) {
	doc, err := xmlparse.ParseString(storeXML)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		query string
		want  int
	}{
		{`//book[@id='b2']`, 1},
		{`//book[@lang]`, 2},
		{`//book[@lang='en']`, 1},
		{`//book[@lang='fr']`, 0},
		{`//*[@lang='en']`, 2},
		{`//title[text()='Dune']`, 2},
		{`//book/title[text()='Dune']`, 2},
		{`//book[@lang][1]`, 1},
		{`//book[@lang][2]`, 1},
		{`//book[@lang][3]`, 0},
		{`//title[text()='Dune']//following::title`, 3},
		{`//book[@id='b1']//following-sibling::book`, 2},
		{`/store[@missing]`, 0},
	}
	// Reference evaluator first.
	var queries []string
	for _, c := range cases {
		got, err := xpath.TreeEvalString(doc, c.query)
		if err != nil {
			t.Fatalf("tree %s: %v", c.query, err)
		}
		if len(got) != c.want {
			t.Errorf("TreeEval(%s) = %d nodes, want %d", c.query, len(got), c.want)
		}
		queries = append(queries, c.query)
	}
	// Label-driven tables must agree.
	for name, s := range map[string]labeling.Scheme{
		"prime":    prime.Scheme{Opts: prime.Options{TrackOrder: true}},
		"interval": interval.Scheme{Variant: interval.XISS},
	} {
		work := doc.Clone()
		lab, err := s.Label(work)
		if err != nil {
			t.Fatal(err)
		}
		checkParity(t, name, lab, work, queries)
	}
}
