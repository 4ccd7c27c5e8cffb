package compact

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"primelabel/internal/labeling"
	"primelabel/internal/labeling/interval"
	"primelabel/internal/xmlparse"
	"primelabel/internal/xmltree"
)

func parse(t *testing.T, xml string) *xmltree.Document {
	t.Helper()
	doc, err := xmlparse.ParseDocument(strings.NewReader(xml), xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

const testXML = `<library><shelf><book><title>a</title><author>x</author></book>` +
	`<book><title>b</title></book></shelf><shelf><book/><magazine><issue/><issue/></magazine></shelf></library>`

// randomXML builds a random tree for property tests.
func randomXML(rng *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString("<r>")
	open := 0
	for i := 0; i < n; i++ {
		switch {
		case open > 0 && rng.Intn(3) == 0:
			b.WriteString("</e>")
			open--
		default:
			b.WriteString("<e>")
			open++
		}
	}
	for ; open > 0; open-- {
		b.WriteString("</e>")
	}
	b.WriteString("</r>")
	return b.String()
}

func TestAncestryAgainstTree(t *testing.T) {
	l, err := Scheme{}.New(parse(t, testXML))
	if err != nil {
		t.Fatal(err)
	}
	if err := labeling.CheckAgainstTree(l); err != nil {
		t.Fatal(err)
	}
	if got := l.SchemeName(); got != "compact" {
		t.Errorf("SchemeName = %q", got)
	}
}

func TestAncestryRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		l, err := Scheme{}.New(parse(t, randomXML(rng, 60)))
		if err != nil {
			t.Fatal(err)
		}
		if err := labeling.CheckAgainstTree(l); err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
	}
}

// TestParityWithXRel checks compact agrees with the XRel interval baseline
// on every ancestor/parent/order probe — the two schemes implement the same
// containment idea, so any disagreement is a bug in one of them.
func TestParityWithXRel(t *testing.T) {
	docC := parse(t, testXML)
	docI := parse(t, testXML)
	lc, err := Scheme{}.New(docC)
	if err != nil {
		t.Fatal(err)
	}
	li, err := (interval.Scheme{Variant: interval.XRel}).New(docI)
	if err != nil {
		t.Fatal(err)
	}
	elsC := xmltree.Elements(docC.Root)
	elsI := xmltree.Elements(docI.Root)
	for i := range elsC {
		for j := range elsC {
			if got, want := lc.IsAncestor(elsC[i], elsC[j]), li.IsAncestor(elsI[i], elsI[j]); got != want {
				t.Fatalf("IsAncestor(%d,%d) = %v, xrel %v", i, j, got, want)
			}
			if got, want := lc.IsParent(elsC[i], elsC[j]), li.IsParent(elsI[i], elsI[j]); got != want {
				t.Fatalf("IsParent(%d,%d) = %v, xrel %v", i, j, got, want)
			}
			gb, err := lc.Before(elsC[i], elsC[j])
			if err != nil {
				t.Fatal(err)
			}
			wb, err := li.Before(elsI[i], elsI[j])
			if err != nil {
				t.Fatal(err)
			}
			if gb != wb {
				t.Fatalf("Before(%d,%d) = %v, xrel %v", i, j, gb, wb)
			}
		}
	}
}

func TestOrderMatchesDocumentOrder(t *testing.T) {
	l, err := Scheme{}.New(parse(t, testXML))
	if err != nil {
		t.Fatal(err)
	}
	els := xmltree.Elements(l.Doc().Root)
	prev := -1
	for i, n := range els {
		r, err := l.OrderOf(n)
		if err != nil {
			t.Fatal(err)
		}
		if r <= prev {
			t.Fatalf("rank %d at element %d not increasing past %d", r, i, prev)
		}
		prev = r
	}
}

func TestLabelBitsWithinTwoWords(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l, err := Scheme{}.New(parse(t, randomXML(rng, 500)))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.MaxLabelBits(); got <= 0 || got > 64*MaxLabelWords {
		t.Fatalf("MaxLabelBits = %d, want within (0,%d]", got, 64*MaxLabelWords)
	}
}

// TestProbeDoesNotAllocate is the freeze path's core promise: relationship
// probes on compact labels perform no heap allocation and no big-integer
// arithmetic.
func TestProbeDoesNotAllocate(t *testing.T) {
	l, err := Scheme{}.New(parse(t, testXML))
	if err != nil {
		t.Fatal(err)
	}
	els := xmltree.Elements(l.Doc().Root)
	a, b := els[0], els[len(els)-1]
	if allocs := testing.AllocsPerRun(200, func() {
		l.IsAncestor(a, b)
		l.IsParent(a, b)
		if _, err := l.Before(a, b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("probe path allocates %.1f objects per run, want 0", allocs)
	}
}

func TestUpdatesKeepInvariants(t *testing.T) {
	l, err := Scheme{}.New(parse(t, testXML))
	if err != nil {
		t.Fatal(err)
	}
	doc := l.Doc()
	shelves := doc.Root.ElementChildren()

	count, err := l.InsertChildAt(shelves[0], 1, xmltree.NewElement("book"))
	if err != nil {
		t.Fatal(err)
	}
	if count < 1 {
		t.Fatalf("insert relabel count = %d, want >= 1", count)
	}
	if err := labeling.CheckAgainstTree(l); err != nil {
		t.Fatalf("after insert: %v", err)
	}

	books := shelves[0].ElementChildren()
	if _, err := l.WrapNode(books[0], xmltree.NewElement("featured")); err != nil {
		t.Fatal(err)
	}
	if err := labeling.CheckAgainstTree(l); err != nil {
		t.Fatalf("after wrap: %v", err)
	}

	if err := l.Delete(shelves[1]); err != nil {
		t.Fatal(err)
	}
	if err := labeling.CheckAgainstTree(l); err != nil {
		t.Fatalf("after delete: %v", err)
	}

	// Deletion left counter gaps; further inserts must still work.
	if _, err := l.InsertChildAt(doc.Root, 0, xmltree.NewElement("shelf")); err != nil {
		t.Fatal(err)
	}
	if err := labeling.CheckAgainstTree(l); err != nil {
		t.Fatalf("after post-delete insert: %v", err)
	}
}

func TestUpdateValidation(t *testing.T) {
	l, err := Scheme{}.New(parse(t, testXML))
	if err != nil {
		t.Fatal(err)
	}
	root := l.Doc().Root
	if err := l.Delete(root); err != xmltree.ErrIsRoot {
		t.Errorf("Delete(root) = %v, want ErrIsRoot", err)
	}
	if _, err := l.WrapNode(root, xmltree.NewElement("w")); err != xmltree.ErrIsRoot {
		t.Errorf("WrapNode(root) = %v, want ErrIsRoot", err)
	}
	if _, err := l.InsertChildAt(root, 0, nil); err == nil {
		t.Error("InsertChildAt(nil) succeeded")
	}
	if _, err := l.InsertChildAt(root, 0, root.ElementChildren()[0]); err == nil {
		t.Error("inserting an attached node succeeded")
	}
}

func TestPersistRoundTrip(t *testing.T) {
	l, err := Scheme{}.New(parse(t, testXML))
	if err != nil {
		t.Fatal(err)
	}
	// Update churn leaves history-dependent gaps the restore must preserve.
	shelves := l.Doc().Root.ElementChildren()
	if _, err := l.InsertChildAt(shelves[0], 0, xmltree.NewElement("book")); err != nil {
		t.Fatal(err)
	}
	if err := l.Delete(shelves[1]); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := l.Marshal(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := labeling.CheckAgainstTree(back); err != nil {
		t.Fatal(err)
	}
	origEls := xmltree.Elements(l.Doc().Root)
	backEls := xmltree.Elements(back.Doc().Root)
	if len(origEls) != len(backEls) {
		t.Fatalf("element count %d, want %d", len(backEls), len(origEls))
	}
	for i := range origEls {
		ol, _ := l.LabelOf(origEls[i])
		bl, _ := back.LabelOf(backEls[i])
		if ol != bl {
			t.Errorf("element %d label %+v, want %+v", i, bl, ol)
		}
	}
	if back.MaxLabelBits() != l.MaxLabelBits() {
		t.Errorf("MaxLabelBits %d, want %d", back.MaxLabelBits(), l.MaxLabelBits())
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	l, err := Scheme{}.New(parse(t, testXML))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := l.Marshal(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := Unmarshal(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Error("truncated stream unmarshaled")
	}
	bad := append([]byte{}, good...)
	bad[0] ^= 0xff
	if _, err := Unmarshal(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic unmarshaled")
	}
	// Flip bytes in the label payload region; any outcome but a silent
	// inconsistent labeling is acceptable.
	for off := len(cmpMagic); off < len(good); off += 3 {
		mut := append([]byte{}, good...)
		mut[off] ^= 0x55
		back, err := Unmarshal(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		if cerr := labeling.CheckAgainstTree(back); cerr != nil {
			t.Fatalf("offset %d: corrupt stream produced inconsistent labeling: %v", off, cerr)
		}
	}
}

// TestNewDoesNotTouchOtherLabelings labels a document that already carries
// another labeling: both must keep answering over the same tree.
func TestNewDoesNotTouchOtherLabelings(t *testing.T) {
	doc := parse(t, testXML)
	li, err := (interval.Scheme{Variant: interval.XRel}).New(doc)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := Scheme{}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	// Both labelings answer over the same tree, independently.
	if err := labeling.CheckAgainstTree(li); err != nil {
		t.Fatal(err)
	}
	if err := labeling.CheckAgainstTree(lc); err != nil {
		t.Fatal(err)
	}
}

func TestTooLargeGuard(t *testing.T) {
	// The guard itself is untestable at 2^31 elements; exercise the check
	// indirectly by confirming a normal document passes it.
	if _, err := (Scheme{}).New(parse(t, testXML)); err != nil {
		t.Fatal(err)
	}
}
