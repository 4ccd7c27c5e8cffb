package xpath

import (
	"strings"
	"sync"
	"testing"

	"primelabel/internal/labeling/prime"
	"primelabel/internal/xmltree"
)

// FuzzParseQuery checks that the query parser never panics and that every
// accepted query renders to a canonical form that reparses to itself
// (String is a fixed point after one round).
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		"/a", "//a", "/a/b//c", "/play//act[4]",
		"//act[3]//following::act", "/a//following-sibling::b[2]",
		"//b[@id='x']", "//b[@id][2]", "//t[text()='v']",
		"/child::a/descendant::b", "//*", "/*[2]",
		"///", "/a[", "/a[0]", "", "a", "/a$b", "/a[@='v']",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		canon := q.String()
		q2, err := Parse(canon)
		if err != nil {
			t.Fatalf("accepted %q, canonical %q does not reparse: %v", src, canon, err)
		}
		if q2.String() != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q -> %q", src, canon, q2.String())
		}
		if strings.Count(canon, "::") > len(q.Steps) {
			t.Fatalf("rendered more axes than steps: %q", canon)
		}
	})
}

// fuzzFixture lazily builds one shared labeled document with a warmed
// evaluator for FuzzEvalTreeParity: fuzz iterations only read it, so one
// instance serves every worker.
var fuzzFixture struct {
	once sync.Once
	doc  *xmltree.Document
	ev   *Evaluator
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
	fuzzFixture.ev = New(lab)
	fuzzFixture.ev.Warm()
}

// FuzzEvalTreeParity feeds arbitrary query strings to a warmed label-driven
// evaluator and to the tree-walking reference: both must accept the same
// queries and return identical node sequences.
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
		q, err := Parse(src)
		if err != nil {
			return
		}
		fuzzFixture.once.Do(fuzzFixtureInit)
		want, wantErr := TreeEval(fuzzFixture.doc, q)
		got, gotErr := fuzzFixture.ev.Eval(q)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: reference err %v, evaluator err %v", src, wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%q: evaluator returned %d nodes, reference %d", src, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%q: node %d differs from reference", src, i)
			}
		}
	})
}
