package xmltree

import (
	"math/rand"
	"strings"
	"testing"
)

// buildSample returns the paper's Figure 8-style tree:
//
//	paper
//	├── title
//	└── authors
//	    ├── author "Tom"
//	    └── author "John"
func buildSample(t *testing.T) (*Document, map[string]*Node) {
	t.Helper()
	paper := NewElement("paper")
	title := NewElement("title")
	authors := NewElement("authors")
	tom := NewElement("author")
	john := NewElement("author")
	for _, step := range []struct {
		p, c *Node
	}{{paper, title}, {paper, authors}, {authors, tom}, {authors, john}} {
		if err := step.p.AppendChild(step.c); err != nil {
			t.Fatal(err)
		}
	}
	if err := tom.AppendChild(NewText("Tom")); err != nil {
		t.Fatal(err)
	}
	if err := john.AppendChild(NewText("John")); err != nil {
		t.Fatal(err)
	}
	return NewDocument(paper), map[string]*Node{
		"paper": paper, "title": title, "authors": authors, "tom": tom, "john": john,
	}
}

func TestAppendChildErrors(t *testing.T) {
	a, b := NewElement("a"), NewElement("b")
	if err := a.AppendChild(b); err != nil {
		t.Fatal(err)
	}
	if err := a.AppendChild(b); err != ErrHasParent {
		t.Errorf("double append: err = %v, want ErrHasParent", err)
	}
	if err := a.AppendChild(nil); err != ErrNilNode {
		t.Errorf("nil append: err = %v, want ErrNilNode", err)
	}
	if err := a.AppendChild(a); err != ErrSelfInsert {
		t.Errorf("self append: err = %v, want ErrSelfInsert", err)
	}
}

func TestInsertChildAt(t *testing.T) {
	p := NewElement("p")
	c1, c2, c3 := NewElement("c1"), NewElement("c2"), NewElement("c3")
	if err := p.AppendChild(c1); err != nil {
		t.Fatal(err)
	}
	if err := p.AppendChild(c3); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertChildAt(1, c2); err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, c := range p.Children {
		names = append(names, c.Name)
	}
	if strings.Join(names, ",") != "c1,c2,c3" {
		t.Errorf("children = %v", names)
	}
	if err := p.InsertChildAt(99, NewElement("x")); err == nil {
		t.Error("out-of-range insert should fail")
	}
	if err := p.InsertChildAt(-1, NewElement("x")); err == nil {
		t.Error("negative insert should fail")
	}
}

func TestInsertBeforeAfter(t *testing.T) {
	p := NewElement("p")
	a, c := NewElement("a"), NewElement("c")
	_ = p.AppendChild(a)
	_ = p.AppendChild(c)
	b := NewElement("b")
	if err := p.InsertAfter(a, b); err != nil {
		t.Fatal(err)
	}
	if p.Children[1] != b {
		t.Error("InsertAfter misplaced node")
	}
	z := NewElement("z")
	if err := p.InsertBefore(a, z); err != nil {
		t.Fatal(err)
	}
	if p.Children[0] != z {
		t.Error("InsertBefore misplaced node")
	}
	if err := p.InsertAfter(NewElement("ghost"), NewElement("x")); err != ErrNotChild {
		t.Errorf("InsertAfter non-child: %v, want ErrNotChild", err)
	}
}

func TestRemoveChildAndDetach(t *testing.T) {
	doc, ns := buildSample(t)
	authors := ns["authors"]
	tom := ns["tom"]
	if err := authors.RemoveChild(tom); err != nil {
		t.Fatal(err)
	}
	if tom.Parent != nil {
		t.Error("removed child keeps parent")
	}
	if len(authors.ElementChildren()) != 1 {
		t.Error("author count after removal wrong")
	}
	if err := authors.RemoveChild(tom); err != ErrNotChild {
		t.Errorf("second removal: %v, want ErrNotChild", err)
	}
	john := ns["john"].Detach()
	if john.Parent != nil || len(authors.ElementChildren()) != 0 {
		t.Error("Detach failed")
	}
	_ = doc
}

func TestWrapChildren(t *testing.T) {
	p := NewElement("p")
	kids := make([]*Node, 4)
	for i := range kids {
		kids[i] = NewElement("k")
		_ = p.AppendChild(kids[i])
	}
	w := NewElement("wrap")
	if err := WrapChildren(p, w, kids[1], kids[2]); err != nil {
		t.Fatal(err)
	}
	if len(p.Children) != 3 || p.Children[1] != w {
		t.Fatalf("wrapper not placed: %d children", len(p.Children))
	}
	if len(w.Children) != 2 || w.Children[0] != kids[1] || w.Children[1] != kids[2] {
		t.Error("wrapped span wrong")
	}
	for _, k := range w.Children {
		if k.Parent != w {
			t.Error("reparenting failed")
		}
	}
	// Single-node wrap (the Figure 17 case).
	w2 := NewElement("wrap2")
	if err := WrapChildren(p, w2, kids[0], kids[0]); err != nil {
		t.Fatal(err)
	}
	if p.Children[0] != w2 || w2.Children[0] != kids[0] {
		t.Error("single-node wrap failed")
	}
}

func TestWrapChildrenErrors(t *testing.T) {
	p := NewElement("p")
	c := NewElement("c")
	_ = p.AppendChild(c)
	other := NewElement("other")
	if err := WrapChildren(p, NewElement("w"), other, c); err != ErrWrongSubtree {
		t.Errorf("foreign first: %v, want ErrWrongSubtree", err)
	}
	used := NewElement("used")
	_ = p.AppendChild(used)
	if err := WrapChildren(p, used, c, c); err != ErrHasParent {
		t.Errorf("attached wrapper: %v, want ErrHasParent", err)
	}
}

func TestDepthRootAncestor(t *testing.T) {
	_, ns := buildSample(t)
	if d := ns["tom"].Depth(); d != 2 {
		t.Errorf("tom depth = %d, want 2", d)
	}
	if ns["tom"].Root() != ns["paper"] {
		t.Error("Root() wrong")
	}
	if !ns["paper"].IsAncestorOf(ns["john"]) {
		t.Error("paper should be ancestor of john")
	}
	if ns["title"].IsAncestorOf(ns["john"]) {
		t.Error("title is not an ancestor of john")
	}
	if ns["john"].IsAncestorOf(ns["john"]) {
		t.Error("a node is not its own ancestor")
	}
}

func TestWalkPreorder(t *testing.T) {
	_, ns := buildSample(t)
	var names []string
	WalkElements(ns["paper"], func(n *Node) bool {
		names = append(names, n.Name)
		return true
	})
	want := "paper,title,authors,author,author"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("preorder = %s, want %s", got, want)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	_, ns := buildSample(t)
	count := 0
	WalkElements(ns["paper"], func(n *Node) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d nodes, want 2", count)
	}
}

func TestDocOrderIndex(t *testing.T) {
	doc, ns := buildSample(t)
	idx := DocOrderIndex(doc)
	if idx[ns["paper"]] != 0 || idx[ns["title"]] != 1 || idx[ns["authors"]] != 2 ||
		idx[ns["tom"]] != 3 || idx[ns["john"]] != 4 {
		t.Errorf("doc order wrong: %v", idx)
	}
}

func TestSiblingAxes(t *testing.T) {
	_, ns := buildSample(t)
	fs := FollowingSiblings(ns["title"])
	if len(fs) != 1 || fs[0] != ns["authors"] {
		t.Errorf("FollowingSiblings(title) = %v", fs)
	}
	ps := PrecedingSiblings(ns["authors"])
	if len(ps) != 1 || ps[0] != ns["title"] {
		t.Errorf("PrecedingSiblings(authors) = %v", ps)
	}
	if FollowingSiblings(ns["paper"]) != nil {
		t.Error("root has no siblings")
	}
}

func TestComputeStats(t *testing.T) {
	doc, _ := buildSample(t)
	st := ComputeStats(doc)
	if st.Nodes != 5 {
		t.Errorf("Nodes = %d, want 5", st.Nodes)
	}
	if st.MaxDepth != 2 {
		t.Errorf("MaxDepth = %d, want 2", st.MaxDepth)
	}
	if st.MaxFan != 2 {
		t.Errorf("MaxFan = %d, want 2", st.MaxFan)
	}
	if st.Leaves != 3 {
		t.Errorf("Leaves = %d, want 3", st.Leaves)
	}
	if st.TextLen != len("Tom")+len("John") {
		t.Errorf("TextLen = %d", st.TextLen)
	}
}

func TestPathTo(t *testing.T) {
	_, ns := buildSample(t)
	if p := PathTo(ns["tom"]); p != "paper/authors/author" {
		t.Errorf("PathTo = %q", p)
	}
	if p := PathTo(ns["paper"]); p != "paper" {
		t.Errorf("PathTo root = %q", p)
	}
}

func TestCloneDeepAndIndependent(t *testing.T) {
	doc, ns := buildSample(t)
	c := doc.Clone()
	if !Equal(doc.Root, c.Root) {
		t.Fatal("clone not equal")
	}
	// Mutating the clone must not affect the original.
	c.Root.Children[0].Name = "changed"
	if ns["title"].Name != "title" {
		t.Error("clone shares nodes with original")
	}
	if Equal(doc.Root, c.Root) {
		t.Error("Equal failed to detect difference")
	}
}

func TestAttrAccessors(t *testing.T) {
	n := NewElement("e")
	if _, ok := n.Attr("x"); ok {
		t.Error("missing attr reported present")
	}
	n.SetAttr("x", "1")
	n.SetAttr("y", "2")
	n.SetAttr("x", "3") // replace
	if v, ok := n.Attr("x"); !ok || v != "3" {
		t.Errorf("Attr(x) = %q,%v", v, ok)
	}
	if len(n.Attrs) != 2 {
		t.Errorf("len(Attrs) = %d, want 2", len(n.Attrs))
	}
}

func TestIsLeafWithTextOnly(t *testing.T) {
	n := NewElement("e")
	_ = n.AppendChild(NewText("hello"))
	if !n.IsLeaf() {
		t.Error("element with only text should be a leaf")
	}
	_ = n.AppendChild(NewElement("c"))
	if n.IsLeaf() {
		t.Error("element with element child is not a leaf")
	}
}

func TestRawChildIndex(t *testing.T) {
	// Children: text, a, text, b, c.
	n := NewElement("e")
	for _, c := range []*Node{NewText("x"), NewElement("a"), NewText("y"), NewElement("b"), NewElement("c")} {
		_ = n.AppendChild(c)
	}
	for elemIdx, want := range map[int]int{-1: 0, 0: 0, 1: 2, 2: 4, 3: 5, 9: 5} {
		if got := n.RawChildIndex(elemIdx); got != want {
			t.Errorf("RawChildIndex(%d) = %d, want %d", elemIdx, got, want)
		}
	}
}

func TestSerializeCompact(t *testing.T) {
	doc, _ := buildSample(t)
	want := "<paper><title/><authors><author>Tom</author><author>John</author></authors></paper>"
	if got := doc.String(); got != want {
		t.Errorf("String() = %s\nwant        %s", got, want)
	}
}

func TestSerializeEscaping(t *testing.T) {
	root := NewElement("r")
	root.SetAttr("a", `x<&"y`)
	_ = root.AppendChild(NewText("a<b & c>d"))
	doc := NewDocument(root)
	want := `<r a="x&lt;&amp;&quot;y">a&lt;b &amp; c&gt;d</r>`
	if got := doc.String(); got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}

func TestSerializeIndent(t *testing.T) {
	doc, _ := buildSample(t)
	var b strings.Builder
	if err := doc.Write(&b, WriteOptions{Indent: "  "}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "\n  <authors>") {
		t.Errorf("indented output missing structure:\n%s", out)
	}
	// Mixed-content elements must not be reindented.
	if !strings.Contains(out, "<author>Tom</author>") {
		t.Errorf("mixed content was reindented:\n%s", out)
	}
}

// randomTree builds a random element tree with n nodes for property tests.
func randomTree(rng *rand.Rand, n int) *Document {
	root := NewElement("n0")
	nodes := []*Node{root}
	for i := 1; i < n; i++ {
		p := nodes[rng.Intn(len(nodes))]
		c := NewElement("n" + string(rune('a'+rng.Intn(26))))
		if rng.Intn(4) == 0 {
			c.SetAttr("id", "v")
		}
		_ = p.AppendChild(c)
		nodes = append(nodes, c)
	}
	return NewDocument(root)
}

func TestPropertyDocOrderMatchesAncestor(t *testing.T) {
	// In document order, an ancestor always precedes its descendants.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		doc := randomTree(rng, 60)
		idx := DocOrderIndex(doc)
		els := Elements(doc.Root)
		for _, a := range els {
			for _, b := range els {
				if a.IsAncestorOf(b) && idx[a] >= idx[b] {
					t.Fatalf("ancestor %v at %d not before descendant at %d", a.Name, idx[a], idx[b])
				}
			}
		}
	}
}

func TestPropertyCloneEqualsOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		doc := randomTree(rng, 1+rng.Intn(100))
		if !Equal(doc.Root, doc.Clone().Root) {
			t.Fatal("clone not structurally equal")
		}
	}
}

func TestPropertyStatsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		doc := randomTree(rng, n)
		st := ComputeStats(doc)
		if st.Nodes != n {
			t.Fatalf("Nodes = %d, want %d", st.Nodes, n)
		}
		if st.Leaves < 1 || st.Leaves > n {
			t.Fatalf("Leaves = %d out of range", st.Leaves)
		}
		if st.MaxDepth < 0 || st.MaxDepth >= n {
			t.Fatalf("MaxDepth = %d out of range", st.MaxDepth)
		}
	}
}
