package codec

import (
	"bytes"
	"testing"

	"primelabel/internal/labeling"
	"primelabel/internal/labeling/prime"
	"primelabel/internal/xmltree"
)

// fuzzOptions are the option sets FuzzCodecUnmarshal labels its seed
// document under, for every registered scheme: the defaults, then Opt1 and
// Opt2 with order-preserving prefix codes, then order tracking with spaced
// order numbers and prime recycling.
var fuzzOptions = []Options{
	{},
	{Prime: prime.Options{ReservedPrimes: -1, PowerOfTwoLeaves: true}, OrderPreserving: true},
	{Prime: prime.Options{TrackOrder: true, SCChunk: 2, OrderSpacing: 4, RecyclePrimes: true, PowerOfTwoLeaves: true}},
}

// fuzzSeedDoc is a small document with text, attributes and sibling lists
// of several widths.
func fuzzSeedDoc(t testing.TB) *xmltree.Document {
	r := xmltree.NewElement("r")
	r.SetAttr("id", "root")
	for i := 0; i < 3; i++ {
		c := xmltree.NewElement("c")
		if err := r.AppendChild(c); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < i+1; j++ {
			if err := c.AppendChild(xmltree.NewElement("d")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.AppendChild(xmltree.NewText("t")); err != nil {
		t.Fatal(err)
	}
	return xmltree.NewDocument(r)
}

// FuzzCodecUnmarshal feeds arbitrary streams to Unmarshal. A stream it
// accepts must describe a consistent labeling: ancestry decided from the
// labels agrees with the tree on every pair of elements, and so does
// document order wherever the labeling answers it. Its allocator state must
// also be able to go on: an insert under the root and a wrap of the last
// element may fail with the scheme's own error, but one that succeeds must
// leave the labeling consistent (and prime's Check passing). The seeds are
// Marshal's output for every persistable configuration, after an insert, a
// wrap and a delete; the checked-in corpus adds streams whose labels
// contradict their tree and streams whose allocator state lies below what
// the tree already uses.
func FuzzCodecUnmarshal(f *testing.F) {
	for _, name := range SchemeNames() {
		for _, o := range fuzzOptions {
			s, _ := NewScheme(name, o)
			lab, err := s.Label(fuzzSeedDoc(f))
			if err != nil {
				f.Fatal(err)
			}
			if !Supported(lab) {
				continue
			}
			root := lab.Doc().Root
			c := root.ElementChildren()
			if _, err := lab.InsertChildAt(c[1], 1, xmltree.NewElement("n")); err != nil {
				f.Fatal(err)
			}
			if _, err := lab.WrapNode(c[2], xmltree.NewElement("w")); err != nil {
				f.Fatal(err)
			}
			if err := lab.Delete(c[0]); err != nil {
				f.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Marshal(lab, &buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lab, err := Unmarshal(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := labeling.CheckAgainstTree(lab); err != nil {
			t.Fatalf("accepted stream: %v", err)
		}
		els := xmltree.Elements(lab.Doc().Root)
		for i, a := range els {
			for j, b := range els {
				before, err := lab.Before(a, b)
				if err != nil {
					continue // a labeling without order support
				}
				if before != (i < j) {
					t.Fatalf("accepted stream: %s: Before(%s, %s) = %v, document order says %v",
						lab.SchemeName(), xmltree.PathTo(a), xmltree.PathTo(b), before, i < j)
				}
			}
		}
		root := lab.Doc().Root
		if _, err := lab.InsertChildAt(root, len(root.Children), xmltree.NewElement("fuzz-insert")); err == nil {
			checkUpdated(t, lab, "insert under the root")
		}
		if last := els[len(els)-1]; last != root {
			if _, err := lab.WrapNode(last, xmltree.NewElement("fuzz-wrap")); err == nil {
				checkUpdated(t, lab, "wrap of "+xmltree.PathTo(last))
			}
		}
	})
}

// checkUpdated fails the fuzz run when an update the labeling accepted left
// it inconsistent with its tree or, for prime, with its own invariants.
func checkUpdated(t *testing.T, lab labeling.Labeling, update string) {
	t.Helper()
	if err := labeling.CheckAgainstTree(lab); err != nil {
		t.Fatalf("accepted stream, then %s: %v", update, err)
	}
	if pl, ok := lab.(*prime.Labeling); ok {
		if err := pl.Check(); err != nil {
			t.Fatalf("accepted stream, then %s: %v", update, err)
		}
	}
}
