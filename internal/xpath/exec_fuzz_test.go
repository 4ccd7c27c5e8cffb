package xpath_test

import (
	"slices"
	"sync"
	"testing"

	"primelabel/internal/labeling/prime"
	"primelabel/internal/rdb"
	"primelabel/internal/xmltree"
	"primelabel/internal/xpath"
)

// fuzzFixture lazily builds one shared labeled document and its element
// tables for FuzzEvalTreeParity: fuzz iterations only read them, so one
// instance serves every worker.
var fuzzFixture struct {
	once   sync.Once
	doc    *xmltree.Document
	tables []*rdb.Table // one per planner, in planners order
}

func fuzzFixtureInit() {
	mk := func(name string, kids ...*xmltree.Node) *xmltree.Node {
		n := xmltree.NewElement(name)
		for _, k := range kids {
			_ = n.AppendChild(k)
		}
		return n
	}
	// A play-shaped tree with repeated tags, attributes, and text so
	// filters have something to match.
	speech := func(lines int) *xmltree.Node {
		s := mk("speech", mk("speaker"))
		for i := 0; i < lines; i++ {
			l := mk("line")
			l.Attrs = append(l.Attrs, xmltree.Attr{Name: "id", Value: string(rune('a' + i))})
			_ = l.AppendChild(xmltree.NewText("words"))
			_ = s.AppendChild(l)
		}
		return s
	}
	root := mk("play",
		mk("title"),
		mk("act", mk("scene", speech(3), speech(1)), mk("scene", speech(2))),
		mk("act", mk("scene", speech(4))),
		mk("act", mk("scene", speech(1), speech(1), speech(1))),
	)
	fuzzFixture.doc = xmltree.NewDocument(root)
	lab, err := (prime.Scheme{Opts: prime.Options{TrackOrder: true}}).Label(fuzzFixture.doc)
	if err != nil {
		panic(err)
	}
	for _, pl := range planners {
		fuzzFixture.tables = append(fuzzFixture.tables, newTable(lab, pl.plan))
	}
}

// FuzzEvalTreeParity feeds arbitrary query strings to element tables under
// both planners — the extent planner being the executor the library and
// labeld serve — and to the tree-walking reference: all must accept the
// same queries and return identical node sequences.
func FuzzEvalTreeParity(f *testing.F) {
	seeds := []string{
		"/play//line", "//act//scene", "//scene[2]//following::line",
		"//line//preceding::speaker", "//speech//following-sibling::speech",
		"//speech[2]//preceding-sibling::speech", "//line[@id='a']",
		"//line[text()='words'][2]", "/play/*", "//*", "/play//act[3]//line",
		"//bogus", "/play[", "",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := xpath.Parse(src)
		if err != nil {
			return
		}
		fuzzFixture.once.Do(fuzzFixtureInit)
		want, wantErr := xpath.TreeEval(fuzzFixture.doc, q)
		for i, tab := range fuzzFixture.tables {
			rows, gotErr := tab.ExecPath(q)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%q %s: reference err %v, table err %v", src, planners[i].name, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if got := tab.Nodes(rows); !slices.Equal(got, want) {
				t.Fatalf("%q %s: table returned %d nodes, reference %d, or a node differs",
					src, planners[i].name, len(got), len(want))
			}
		}
	})
}
