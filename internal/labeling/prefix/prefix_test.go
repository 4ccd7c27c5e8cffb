package prefix

import (
	"bytes"
	"fmt"
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

func allSchemes() []labeling.Scheme {
	return []labeling.Scheme{
		Scheme{Variant: Prefix1},
		Scheme{Variant: Prefix2},
		Scheme{Variant: Prefix1, OrderPreserving: true},
		Scheme{Variant: Prefix2, OrderPreserving: true},
		DeweyScheme{},
	}
}

// The paper's Prefix-2 description: sibling codes 0, 10, 1100, 1101, 1110,
// 11110000.
func TestPrefix2SiblingCodes(t *testing.T) {
	s := Scheme{Variant: Prefix2}
	want := []string{"0", "10", "1100", "1101", "1110", "11110000", "11110001"}
	code := Bits{}
	for i, w := range want {
		code = s.nextSibCode(code)
		if code.String() != w {
			t.Fatalf("code %d = %s, want %s", i, code, w)
		}
	}
}

// Prefix-1 codes the i-th child as 1^(i-1)0.
func TestPrefix1SiblingCodes(t *testing.T) {
	s := Scheme{Variant: Prefix1}
	want := []string{"0", "10", "110", "1110"}
	code := Bits{}
	for i, w := range want {
		code = s.nextSibCode(code)
		if code.String() != w {
			t.Fatalf("code %d = %s, want %s", i, code, w)
		}
	}
}

func TestBitsOperations(t *testing.T) {
	b := BitsFromString("1011")
	if b.Len() != 4 || b.String() != "1011" {
		t.Fatalf("Bits = %s len %d", b, b.Len())
	}
	if b.Bit(0) != 1 || b.Bit(1) != 0 {
		t.Error("Bit() wrong")
	}
	c := b.Append(BitsFromString("01"))
	if c.String() != "101101" {
		t.Errorf("Append = %s", c)
	}
	if b.String() != "1011" {
		t.Error("Append mutated receiver")
	}
	if !c.HasPrefix(b) || b.HasPrefix(c) {
		t.Error("HasPrefix wrong")
	}
	if !b.Equal(BitsFromString("1011")) || b.Equal(c) {
		t.Error("Equal wrong")
	}
	if got := BitsFromString("110").increment(); !got.Equal(BitsFromString("111")) {
		t.Errorf("increment(110) = %s, want 111", got)
	}
	if got := BitsFromString("1011").increment(); !got.Equal(BitsFromString("1100")) {
		t.Errorf("increment(1011) = %s, want 1100", got)
	}
	if !BitsFromString("111").allOnes() || BitsFromString("1101").allOnes() || (Bits{}).allOnes() {
		t.Error("allOnes wrong")
	}
}

func TestBitsCompare(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"0", "10", -1}, {"10", "1100", -1}, {"1101", "1110", -1},
		{"0", "0", 0}, {"10", "100", -1}, {"100", "10", 1},
	}
	for _, c := range cases {
		if got := BitsFromString(c.a).Compare(BitsFromString(c.b)); got != c.want {
			t.Errorf("Compare(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAgainstTreeAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, s := range allSchemes() {
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

func TestIsParentAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, s := range allSchemes() {
		doc := randomTree(rng, 50)
		l, err := s.Label(doc)
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
	rng := rand.New(rand.NewSource(93))
	ordered := []labeling.Scheme{
		Scheme{Variant: Prefix1, OrderPreserving: true},
		Scheme{Variant: Prefix2, OrderPreserving: true},
		DeweyScheme{},
	}
	for _, s := range ordered {
		doc := randomTree(rng, 60)
		l, err := s.Label(doc)
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
					t.Fatalf("%s: Before(%s,%s) = %v, want %v", s.Name(),
						xmltree.PathTo(a), xmltree.PathTo(b), got, want)
				}
			}
		}
	}
}

func TestBeforeUnsupportedWhenUnordered(t *testing.T) {
	doc, ns := buildTree(t)
	l, err := (Scheme{Variant: Prefix2}).New(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Before(ns["a"], ns["b"]); err != labeling.ErrOrderUnsupported {
		t.Errorf("Before err = %v, want ErrOrderUnsupported", err)
	}
}

// Figure 16: an (unordered) insert costs exactly one label.
func TestUnorderedInsertCostsOne(t *testing.T) {
	for _, v := range []Variant{Prefix1, Prefix2} {
		doc, ns := buildTree(t)
		l, err := (Scheme{Variant: v}).New(doc)
		if err != nil {
			t.Fatal(err)
		}
		count, err := l.InsertChildAt(ns["a"], 0, xmltree.NewElement("new"))
		if err != nil {
			t.Fatal(err)
		}
		if count != 1 {
			t.Errorf("%v unordered insert count = %d, want 1", v, count)
		}
		if err := labeling.CheckAgainstTree(l); err != nil {
			t.Fatal(err)
		}
	}
}

// Figure 18: an order-preserving insert between siblings relabels all
// following siblings and their subtrees.
func TestOrderedInsertRelabelsFollowers(t *testing.T) {
	root := xmltree.NewElement("r")
	var subtreeSizes int
	for i := 0; i < 5; i++ {
		act := xmltree.NewElement("act")
		_ = root.AppendChild(act)
		for j := 0; j < 10; j++ {
			_ = act.AppendChild(xmltree.NewElement("scene"))
		}
		if i >= 1 { // acts after the insertion point (index 1)
			subtreeSizes += 11
		}
	}
	doc := xmltree.NewDocument(root)
	l, err := (Scheme{Variant: Prefix2, OrderPreserving: true}).New(doc)
	if err != nil {
		t.Fatal(err)
	}
	count, err := l.InsertChildAt(root, 1, xmltree.NewElement("act"))
	if err != nil {
		t.Fatal(err)
	}
	// The new act + 4 following acts × (1 + 10 scenes).
	want := 1 + subtreeSizes
	if count != want {
		t.Errorf("ordered insert count = %d, want %d", count, want)
	}
	if err := labeling.CheckAgainstTree(l); err != nil {
		t.Fatal(err)
	}
	// Order must be preserved.
	idx := xmltree.DocOrderIndex(doc)
	els := xmltree.Elements(doc.Root)
	for _, a := range els {
		for _, b := range els {
			got, err := l.Before(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := idx[a] < idx[b]; got != want {
				t.Fatal("order broken after insert")
			}
		}
	}
}

func TestDeweyLabels(t *testing.T) {
	doc, ns := buildTree(t)
	l, err := DeweyScheme{}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"r": "", "a": "1", "b": "2", "c": "1.1", "d": "1.2"}
	for name, w := range want {
		got, ok := l.DeweyOf(ns[name])
		if !ok || got != w {
			t.Errorf("DeweyOf(%s) = %q,%v; want %q", name, got, ok, w)
		}
	}
}

func TestDeweyInsertRenumbersFollowers(t *testing.T) {
	doc, ns := buildTree(t)
	l, err := DeweyScheme{}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	// Insert before c: d shifts from 1.2 to 1.3.
	count, err := l.InsertChildAt(ns["a"], 0, xmltree.NewElement("new"))
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 { // new + c + d
		t.Errorf("count = %d, want 3", count)
	}
	if got, _ := l.DeweyOf(ns["d"]); got != "1.3" {
		t.Errorf("d = %q, want 1.3", got)
	}
	if err := labeling.CheckAgainstTree(l); err != nil {
		t.Fatal(err)
	}
}

func TestWrapNodeAllSchemes(t *testing.T) {
	for _, s := range allSchemes() {
		doc, ns := buildTree(t)
		l, err := s.Label(doc)
		if err != nil {
			t.Fatal(err)
		}
		w := xmltree.NewElement("w")
		count, err := l.WrapNode(ns["a"], w)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if count < 4 { // wrapper + a + c + d at minimum
			t.Errorf("%s: wrap count = %d, want >= 4", s.Name(), count)
		}
		if err := labeling.CheckAgainstTree(l); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if _, err := l.WrapNode(doc.Root, xmltree.NewElement("x")); err != xmltree.ErrIsRoot {
			t.Errorf("%s: wrap root err = %v", s.Name(), err)
		}
	}
}

func TestDeleteAllSchemes(t *testing.T) {
	for _, s := range allSchemes() {
		doc, ns := buildTree(t)
		l, err := s.Label(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Delete(ns["a"]); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if l.LabelBits(ns["c"]) != 0 {
			t.Errorf("%s: deleted node still labeled", s.Name())
		}
		if err := l.Delete(doc.Root); err != xmltree.ErrIsRoot {
			t.Errorf("%s: delete root err = %v", s.Name(), err)
		}
		if err := labeling.CheckAgainstTree(l); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

// Equation 1 vs Equation 2: on a wide flat tree Prefix-1 labels grow
// linearly with fan-out while Prefix-2 stays logarithmic ×4.
func TestPrefix2BeatsPrefix1OnWideTrees(t *testing.T) {
	root := xmltree.NewElement("r")
	for i := 0; i < 200; i++ {
		_ = root.AppendChild(xmltree.NewElement("c"))
	}
	doc := xmltree.NewDocument(root)
	l1, err := (Scheme{Variant: Prefix1}).New(doc.Clone())
	if err != nil {
		t.Fatal(err)
	}
	l2, err := (Scheme{Variant: Prefix2}).New(doc)
	if err != nil {
		t.Fatal(err)
	}
	if l1.MaxLabelBits() != 200 {
		t.Errorf("Prefix-1 max bits = %d, want 200 (D·F)", l1.MaxLabelBits())
	}
	if l2.MaxLabelBits() >= l1.MaxLabelBits()/4 {
		t.Errorf("Prefix-2 max bits = %d, not far below Prefix-1's %d", l2.MaxLabelBits(), l1.MaxLabelBits())
	}
}

func TestPropertyDynamicMix(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for _, s := range allSchemes() {
		doc := randomTree(rng, 15)
		l, err := s.Label(doc)
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

func TestNamesAndAccessors(t *testing.T) {
	if (Scheme{Variant: Prefix1}).Name() != "prefix-1" ||
		(Scheme{Variant: Prefix2}).Name() != "prefix-2" ||
		(Scheme{Variant: Prefix2, OrderPreserving: true}).Name() != "prefix-2+ordered" ||
		(DeweyScheme{}).Name() != "dewey" {
		t.Error("scheme names wrong")
	}
	if Prefix1.String() != "prefix-1" || Prefix2.String() != "prefix-2" || Variant(9).String() == "" {
		t.Error("variant strings wrong")
	}
	doc, ns := buildTree(t)
	l, err := (Scheme{Variant: Prefix2}).New(doc)
	if err != nil {
		t.Fatal(err)
	}
	if l.SchemeName() != "prefix-2" || l.Doc() != doc {
		t.Error("labeling accessors wrong")
	}
	bits, ok := l.BitsOf(ns["a"])
	if !ok || bits.Len() == 0 {
		t.Error("BitsOf missing")
	}
	if _, ok := l.BitsOf(xmltree.NewElement("ghost")); ok {
		t.Error("BitsOf of ghost node")
	}
}

func TestDeweyAccessorsAndBits(t *testing.T) {
	doc, ns := buildTree(t)
	l, err := DeweyScheme{}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	if l.SchemeName() != "dewey" || l.Doc() != doc {
		t.Error("dewey accessors wrong")
	}
	// Root's empty label still costs one slot; children cost component
	// bits plus delimiters.
	if l.LabelBits(ns["r"]) != 1 {
		t.Errorf("root bits = %d", l.LabelBits(ns["r"]))
	}
	if l.LabelBits(xmltree.NewElement("ghost")) != 0 {
		t.Error("ghost bits")
	}
	if l.MaxLabelBits() < l.LabelBits(ns["c"]) {
		t.Error("MaxLabelBits below a node's bits")
	}
	if _, ok := l.DeweyOf(xmltree.NewElement("ghost")); ok {
		t.Error("DeweyOf ghost")
	}
}

func TestDeweyInsertValidation(t *testing.T) {
	doc, ns := buildTree(t)
	l, err := DeweyScheme{}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.InsertChildAt(ns["a"], 0, nil); err == nil {
		t.Error("nil insert should fail")
	}
	if _, err := l.InsertChildAt(ns["a"], 0, xmltree.NewText("t")); err == nil {
		t.Error("text insert should fail")
	}
	withKids := xmltree.NewElement("p")
	_ = withKids.AppendChild(xmltree.NewElement("q"))
	if _, err := l.InsertChildAt(ns["a"], 0, withKids); err == nil {
		t.Error("non-childless insert should fail")
	}
	if _, err := l.InsertChildAt(ns["a"], 0, ns["b"].Detach()); err == nil {
		t.Error("labeled node insert should fail")
	}
	if _, err := l.InsertChildAt(xmltree.NewElement("out"), 0, xmltree.NewElement("n")); err == nil {
		t.Error("unlabeled parent should fail")
	}
	if _, err := l.WrapNode(ns["c"], ns["d"].Detach()); err == nil {
		t.Error("wrap with labeled wrapper should fail")
	}
}

func TestPrefixInsertValidation(t *testing.T) {
	doc, ns := buildTree(t)
	l, err := (Scheme{Variant: Prefix2}).New(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.InsertChildAt(ns["a"], 0, nil); err == nil {
		t.Error("nil insert should fail")
	}
	if _, err := l.InsertChildAt(ns["a"], 0, xmltree.NewText("t")); err == nil {
		t.Error("text insert should fail")
	}
	attached := ns["c"]
	if _, err := l.InsertChildAt(ns["a"], 0, attached); err == nil {
		t.Error("attached node insert should fail")
	}
	withKids := xmltree.NewElement("p")
	_ = withKids.AppendChild(xmltree.NewElement("q"))
	if _, err := l.InsertChildAt(ns["a"], 0, withKids); err == nil {
		t.Error("non-childless insert should fail")
	}
}

// TestIssuableMatchesAllocator checks issuable against nextSibCode: among
// all bit strings of up to 8 bits, exactly the codes the allocator issues
// are issuable, for both variants.
func TestIssuableMatchesAllocator(t *testing.T) {
	for _, s := range []Scheme{{Variant: Prefix1}, {Variant: Prefix2}} {
		issued := map[string]bool{}
		for c := s.nextSibCode(Bits{}); c.Len() <= 8; c = s.nextSibCode(c) {
			issued[c.String()] = true
		}
		for n := 1; n <= 8; n++ {
			for v := 0; v < 1<<n; v++ {
				str := fmt.Sprintf("%0*b", n, v)
				if got := s.issuable(BitsFromString(str)); got != issued[str] {
					t.Errorf("%s: issuable(%s) = %v, allocator issues it: %v", s.Name(), str, got, issued[str])
				}
			}
		}
	}
}

// TestUnmarshalRejectsStaleAllocator tampers with a parent's allocator
// state, the last sibling code it issued, so that the next append would
// reuse or collide with a live code, or could not go on at all. Each
// stream must be rejected; the untampered one loads.
func TestUnmarshalRejectsStaleAllocator(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(l *Labeling, root *xmltree.Node)
		ok     bool
	}{
		{"untampered", func(l *Labeling, root *xmltree.Node) {}, true},
		{"no code issued under a parent with children", func(l *Labeling, root *xmltree.Node) {
			l.lastCode[root] = Bits{}
		}, false},
		{"last code below a child's", func(l *Labeling, root *xmltree.Node) {
			l.lastCode[root] = l.labels[root.ElementChildren()[0]].code
		}, false},
		{"last code the allocator never issues", func(l *Labeling, root *xmltree.Node) {
			l.lastCode[root] = BitsFromString("11")
		}, false},
		{"child code the allocator never issues", func(l *Labeling, root *xmltree.Node) {
			a := root.ElementChildren()[0]
			l.labels[a.ElementChildren()[0]].code = BitsFromString("00")
		}, false},
	}
	for _, c := range cases {
		doc, _ := buildTree(t)
		l, err := Scheme{Variant: Prefix2}.New(doc)
		if err != nil {
			t.Fatal(err)
		}
		c.tamper(l, doc.Root)
		var buf bytes.Buffer
		if err := l.Marshal(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Unmarshal(&buf); (err == nil) != c.ok {
			t.Errorf("%s: Unmarshal err = %v", c.name, err)
		}
	}
}
