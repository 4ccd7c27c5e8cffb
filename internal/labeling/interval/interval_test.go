package interval

import (
	"math/rand"
	"testing"

	"primelabel/internal/labeling"
	"primelabel/internal/xmltree"
)

func buildTree(t *testing.T) (*xmltree.Document, map[string]*xmltree.Node) {
	t.Helper()
	r := xmltree.NewElement("r")
	a := xmltree.NewElement("a")
	b := xmltree.NewElement("b")
	c := xmltree.NewElement("c")
	d := xmltree.NewElement("d")
	for _, s := range []struct{ p, c *xmltree.Node }{{r, a}, {r, b}, {a, c}, {a, d}} {
		if err := s.p.AppendChild(s.c); err != nil {
			t.Fatal(err)
		}
	}
	return xmltree.NewDocument(r), map[string]*xmltree.Node{"r": r, "a": a, "b": b, "c": c, "d": d}
}

func randomTree(rng *rand.Rand, n int) *xmltree.Document {
	root := xmltree.NewElement("root")
	nodes := []*xmltree.Node{root}
	for i := 1; i < n; i++ {
		p := nodes[rng.Intn(len(nodes))]
		c := xmltree.NewElement("e")
		_ = p.AppendChild(c)
		nodes = append(nodes, c)
	}
	return xmltree.NewDocument(root)
}

func variants() []Scheme {
	return []Scheme{{Variant: XISS}, {Variant: XRel}, {Variant: XISS, Slack: 4}}
}

func TestXRelNumbers(t *testing.T) {
	doc, ns := buildTree(t)
	l, err := Scheme{Variant: XRel}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	// DFS: r(1,...), a(2,...), c(3,4), d(5,6), a ends 7, b(8,9), r ends 10.
	want := map[string][2]int{
		"r": {1, 10}, "a": {2, 7}, "c": {3, 4}, "d": {5, 6}, "b": {8, 9},
	}
	for name, w := range want {
		a, b, ok := l.Interval(ns[name])
		if !ok || a != w[0] || b != w[1] {
			t.Errorf("%s interval = (%d,%d), want %v", name, a, b, w)
		}
	}
}

func TestXISSNumbers(t *testing.T) {
	doc, ns := buildTree(t)
	l, err := Scheme{Variant: XISS}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	// Extended preorder with no slack: order = preorder position, size =
	// subtree node count.
	type os struct{ order, size int }
	want := map[string]os{
		"r": {1, 5}, "a": {2, 3}, "c": {3, 1}, "d": {4, 1}, "b": {5, 1},
	}
	for name, w := range want {
		a, b, ok := l.Interval(ns[name])
		if !ok || a != w.order || b-a+1 != w.size {
			t.Errorf("%s = (order %d, size %d), want (%d,%d)", name, a, b-a+1, w.order, w.size)
		}
	}
}

func TestAgainstTreeAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, s := range variants() {
		for trial := 0; trial < 10; trial++ {
			doc := randomTree(rng, 70)
			l, err := s.Label(doc)
			if err != nil {
				t.Fatal(err)
			}
			if err := labeling.CheckAgainstTree(l); err != nil {
				t.Fatalf("%s trial %d: %v", s.Name(), trial, err)
			}
		}
	}
}

func TestIsParent(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, s := range variants() {
		doc := randomTree(rng, 50)
		l, err := s.New(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range xmltree.Elements(doc.Root) {
			for _, b := range xmltree.Elements(doc.Root) {
				want := b.Parent == a
				if got := l.IsParent(a, b); got != want {
					t.Fatalf("%s: IsParent(%s,%s)=%v want %v", s.Name(),
						xmltree.PathTo(a), xmltree.PathTo(b), got, want)
				}
			}
		}
	}
}

func TestBeforeMatchesDocOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, s := range variants() {
		doc := randomTree(rng, 60)
		l, err := s.New(doc)
		if err != nil {
			t.Fatal(err)
		}
		idx := xmltree.DocOrderIndex(doc)
		els := xmltree.Elements(doc.Root)
		for _, a := range els {
			for _, b := range els {
				got, err := l.Before(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if want := idx[a] < idx[b]; got != want {
					t.Fatalf("%s: Before disagrees with doc order", s.Name())
				}
			}
		}
	}
}

// Figure 16's defining behavior: a leaf insert relabels a number of nodes
// that grows with document size.
func TestInsertRelabelsFollowingNodes(t *testing.T) {
	for _, s := range []Scheme{{Variant: XISS}, {Variant: XRel}} {
		rng := rand.New(rand.NewSource(84))
		doc := randomTree(rng, 500)
		l, err := s.New(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Insert at the front of the root's children: nearly every node
		// follows the insertion point.
		count, err := l.InsertChildAt(doc.Root, 0, xmltree.NewElement("new"))
		if err != nil {
			t.Fatal(err)
		}
		if count < 400 {
			t.Errorf("%s: front insert relabeled %d nodes, want hundreds", s.Name(), count)
		}
		if err := labeling.CheckAgainstTree(l); err != nil {
			t.Fatal(err)
		}
	}
}

// Appending at the very end of an XRel document still renumbers the
// ancestor chain (their end values shift).
func TestAppendRelabelsAncestors(t *testing.T) {
	doc, ns := buildTree(t)
	l, err := Scheme{Variant: XRel}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	count, err := l.InsertChildAt(ns["b"], 0, xmltree.NewElement("new"))
	if err != nil {
		t.Fatal(err)
	}
	// b and r change (ends shift); new node is the +1.
	if count != 3 {
		t.Errorf("append relabel count = %d, want 3", count)
	}
}

// The slack ablation: inserts that fit in reserved space relabel nothing.
func TestXISSSlackAbsorbsAppends(t *testing.T) {
	doc, ns := buildTree(t)
	l, err := Scheme{Variant: XISS, Slack: 4}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		count, err := l.InsertChildAt(ns["a"], len(ns["a"].ElementChildren()), xmltree.NewElement("s"))
		if err != nil {
			t.Fatal(err)
		}
		if count != 1 {
			t.Errorf("slack append %d relabeled %d nodes, want 1", i, count)
		}
	}
	if err := labeling.CheckAgainstTree(l); err != nil {
		t.Fatal(err)
	}
	// Eventually the slack runs out and a renumber happens.
	sawRenumber := false
	for i := 0; i < 30; i++ {
		count, err := l.InsertChildAt(ns["a"], len(ns["a"].ElementChildren()), xmltree.NewElement("s"))
		if err != nil {
			t.Fatal(err)
		}
		if count > 1 {
			sawRenumber = true
			break
		}
	}
	if !sawRenumber {
		t.Error("slack never exhausted after 30 appends")
	}
	if err := labeling.CheckAgainstTree(l); err != nil {
		t.Fatal(err)
	}
}

func TestWrapNode(t *testing.T) {
	for _, s := range variants() {
		doc, ns := buildTree(t)
		l, err := s.New(doc)
		if err != nil {
			t.Fatal(err)
		}
		w := xmltree.NewElement("w")
		if _, err := l.WrapNode(ns["a"], w); err != nil {
			t.Fatal(err)
		}
		if err := labeling.CheckAgainstTree(l); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if _, err := l.WrapNode(doc.Root, xmltree.NewElement("w2")); err != xmltree.ErrIsRoot {
			t.Errorf("wrap root err = %v", err)
		}
	}
}

func TestDeleteKeepsOtherLabels(t *testing.T) {
	doc, ns := buildTree(t)
	l, err := Scheme{Variant: XRel}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	a1, b1, _ := l.Interval(ns["b"])
	if err := l.Delete(ns["a"]); err != nil {
		t.Fatal(err)
	}
	a2, b2, ok := l.Interval(ns["b"])
	if !ok || a1 != a2 || b1 != b2 {
		t.Error("deletion changed an unrelated label")
	}
	if _, _, ok := l.Interval(ns["c"]); ok {
		t.Error("deleted descendant still labeled")
	}
	if err := l.Delete(doc.Root); err != xmltree.ErrIsRoot {
		t.Errorf("delete root err = %v", err)
	}
	if err := labeling.CheckAgainstTree(l); err != nil {
		t.Fatal(err)
	}
}

func TestLabelBits(t *testing.T) {
	doc, ns := buildTree(t)
	l, err := Scheme{Variant: XRel}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	// Max counter 10 → 4 bits per field → 8 bits fixed length.
	if got := l.MaxLabelBits(); got != 8 {
		t.Errorf("MaxLabelBits = %d, want 8", got)
	}
	if got := l.LabelBits(ns["c"]); got != 8 {
		t.Errorf("LabelBits = %d, want 8 (fixed length)", got)
	}
	if got := l.LabelBits(xmltree.NewElement("ghost")); got != 0 {
		t.Errorf("ghost LabelBits = %d", got)
	}
}

func TestInsertValidation(t *testing.T) {
	doc, ns := buildTree(t)
	l, err := Scheme{Variant: XISS}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.InsertChildAt(ns["a"], 0, nil); err == nil {
		t.Error("nil insert should fail")
	}
	if _, err := l.InsertChildAt(ns["a"], 0, xmltree.NewText("t")); err == nil {
		t.Error("text insert should fail")
	}
	if _, err := l.InsertChildAt(xmltree.NewElement("out"), 0, xmltree.NewElement("n")); err == nil {
		t.Error("unlabeled parent should fail")
	}
}

func TestSchemeNames(t *testing.T) {
	if got := (Scheme{Variant: XISS}).Name(); got != "interval-xiss" {
		t.Errorf("Name = %q", got)
	}
	if got := (Scheme{Variant: XRel}).Name(); got != "interval-xrel" {
		t.Errorf("Name = %q", got)
	}
	if got := (Scheme{Variant: XISS, Slack: 4}).Name(); got != "interval-xiss+slack4" {
		t.Errorf("Name = %q", got)
	}
}

func TestPropertyDynamicMix(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	for _, s := range variants() {
		doc := randomTree(rng, 15)
		l, err := s.New(doc)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 60; step++ {
			els := xmltree.Elements(doc.Root)
			switch op := rng.Intn(10); {
			case op < 6:
				p := els[rng.Intn(len(els))]
				if _, err := l.InsertChildAt(p, rng.Intn(len(p.ElementChildren())+1), xmltree.NewElement("n")); err != nil {
					t.Fatalf("%s step %d insert: %v", s.Name(), step, err)
				}
			case op < 8:
				tgt := els[rng.Intn(len(els))]
				if tgt == doc.Root {
					continue
				}
				if _, err := l.WrapNode(tgt, xmltree.NewElement("w")); err != nil {
					t.Fatalf("%s step %d wrap: %v", s.Name(), step, err)
				}
			default:
				if len(els) < 5 {
					continue
				}
				v := els[rng.Intn(len(els))]
				if v == doc.Root {
					continue
				}
				if err := l.Delete(v); err != nil {
					t.Fatalf("%s step %d delete: %v", s.Name(), step, err)
				}
			}
		}
		if err := labeling.CheckAgainstTree(l); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

// TestSlackRangesStayInsideInt labels and extends a 40-deep chain under a
// slack whose per-level product would overflow int: every range must still
// nest as the tree does.
func TestSlackRangesStayInsideInt(t *testing.T) {
	root := xmltree.NewElement("r")
	n := root
	for i := 0; i < 40; i++ {
		c := xmltree.NewElement("c")
		if err := n.AppendChild(c); err != nil {
			t.Fatal(err)
		}
		n = c
	}
	l, err := Scheme{Variant: XISS, Slack: 1000}.New(xmltree.NewDocument(root))
	if err != nil {
		t.Fatal(err)
	}
	if err := labeling.CheckAgainstTree(l); err != nil {
		t.Fatal(err)
	}
	if _, err := l.WrapNode(n, xmltree.NewElement("w")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.InsertChildAt(root, len(root.Children), xmltree.NewElement("x")); err != nil {
		t.Fatal(err)
	}
	if err := labeling.CheckAgainstTree(l); err != nil {
		t.Fatal(err)
	}
}
