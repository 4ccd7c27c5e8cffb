package primelabel

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"primelabel/internal/xpath"
)

const libraryXML = `<library>
  <section name="fiction">
    <book id="b1"><title>Dune</title><author>Herbert</author></book>
    <book id="b2"><title>Foundation</title><author>Asimov</author></book>
  </section>
  <section name="poetry">
    <book id="b3"><title>Leaves</title></book>
  </section>
</library>`

func loadLibrary(t *testing.T, cfg Config) *Document {
	t.Helper()
	doc, err := LoadString(libraryXML, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestLoadAndBasics(t *testing.T) {
	doc := loadLibrary(t, Config{Scheme: Prime, TrackOrder: true})
	if doc.SchemeName() != "prime" {
		t.Errorf("SchemeName = %q", doc.SchemeName())
	}
	st := doc.Stats()
	if st.Elements != 11 {
		t.Errorf("Elements = %d, want 11", st.Elements)
	}
	if doc.Root().Name() != "library" {
		t.Errorf("Root = %s", doc.Root().Name())
	}
	books := doc.Find("book")
	if len(books) != 3 {
		t.Fatalf("Find(book) = %d", len(books))
	}
	if v, ok := books[0].Attr("id"); !ok || v != "b1" {
		t.Errorf("book attr = %q,%v", v, ok)
	}
	if books[0].Path() != "library/section/book" {
		t.Errorf("Path = %q", books[0].Path())
	}
}

func TestAllSchemesLoadAndAnswerAncestry(t *testing.T) {
	for _, kind := range Schemes() {
		cfg := Config{Scheme: kind, TrackOrder: true, OrderPreserving: true}
		doc, err := LoadString(libraryXML, cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		sections := doc.Find("section")
		books := doc.Find("book")
		if !doc.IsAncestor(doc.Root(), books[0]) {
			t.Errorf("%s: root should be ancestor of book", kind)
		}
		if !doc.IsParent(sections[0], books[0]) {
			t.Errorf("%s: section should be parent of book", kind)
		}
		if doc.IsAncestor(books[0], sections[0]) {
			t.Errorf("%s: book is not an ancestor of section", kind)
		}
		if doc.IsAncestor(books[0], books[0]) {
			t.Errorf("%s: node is not its own ancestor", kind)
		}
		if doc.Label(books[0]) == "" {
			t.Errorf("%s: empty label render", kind)
		}
		if doc.MaxLabelBits() <= 0 {
			t.Errorf("%s: MaxLabelBits = %d", kind, doc.MaxLabelBits())
		}
	}
}

func TestQueryAndOrder(t *testing.T) {
	doc := loadLibrary(t, Config{Scheme: Prime, TrackOrder: true})
	titles, err := doc.Query("/library//title")
	if err != nil {
		t.Fatal(err)
	}
	if len(titles) != 3 || titles[0].Text() != "Dune" {
		t.Fatalf("titles = %v", titles)
	}
	second, err := doc.Query("//book[2]")
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 1 {
		t.Fatalf("book[2] = %d nodes", len(second))
	}
	if v, _ := second[0].Attr("id"); v != "b2" {
		t.Errorf("book[2] id = %s", v)
	}
	following, err := doc.Query("//book[1]//following::book")
	if err != nil {
		t.Fatal(err)
	}
	if len(following) != 2 {
		t.Errorf("following books = %d, want 2", len(following))
	}
	books := doc.Find("book")
	if before, err := doc.Before(books[0], books[2]); err != nil || !before {
		t.Errorf("Before = %v,%v", before, err)
	}
}

func TestDynamicUpdates(t *testing.T) {
	doc := loadLibrary(t, Config{Scheme: Prime, TrackOrder: true, PowerOfTwoLeaves: true})
	books := doc.Find("book")
	fixed := map[Node]string{}
	for _, b := range books {
		fixed[b] = doc.Label(b)
	}
	newBook, count, err := doc.InsertAfter(books[0], "book")
	if err != nil {
		t.Fatal(err)
	}
	if count > 4 {
		t.Errorf("insert wrote %d labels, want O(1)", count)
	}
	for b, l := range fixed {
		if doc.Label(b) != l {
			t.Errorf("existing label changed: %s", b.Path())
		}
	}
	// New node participates in queries and order.
	all, err := doc.Query("//book")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("books after insert = %d", len(all))
	}
	if before, err := doc.Before(books[0], newBook); err != nil || !before {
		t.Errorf("new book order wrong: %v %v", before, err)
	}
	if before, err := doc.Before(newBook, books[1]); err != nil || !before {
		t.Errorf("new book order wrong vs b2: %v %v", before, err)
	}

	// Wrap and delete.
	wrapper, _, err := doc.WrapParent(books[2], "archive")
	if err != nil {
		t.Fatal(err)
	}
	if !doc.IsParent(wrapper, books[2]) {
		t.Error("wrapper not parent after wrap")
	}
	if err := doc.Delete(wrapper); err != nil {
		t.Fatal(err)
	}
	remaining, _ := doc.Query("//book")
	if len(remaining) != 3 {
		t.Errorf("books after delete = %d, want 3", len(remaining))
	}
}

func TestInsertChildAndBefore(t *testing.T) {
	doc := loadLibrary(t, Config{})
	sections := doc.Find("section")
	n, _, err := doc.InsertChild(sections[1], 0, "book")
	if err != nil {
		t.Fatal(err)
	}
	if n.Parent().Name() != "section" {
		t.Error("InsertChild misplaced")
	}
	b3 := doc.Find("book")[2]
	m, _, err := doc.InsertBefore(b3, "pamphlet")
	if err != nil {
		t.Fatal(err)
	}
	if m.IsZero() || m.Parent().Name() != "section" {
		t.Error("InsertBefore misplaced")
	}
	if _, _, err := doc.InsertBefore(doc.Root(), "x"); err == nil {
		t.Error("InsertBefore root should fail")
	}
	if _, _, err := doc.InsertChild(Node{}, 0, "x"); err == nil {
		t.Error("zero parent should fail")
	}
}

func TestLabelRendering(t *testing.T) {
	cases := map[SchemeKind]func(string) bool{
		Prime:           func(s string) bool { return s != "" },
		Interval:        func(s string) bool { return strings.HasPrefix(s, "(") },
		XRel:            func(s string) bool { return strings.HasPrefix(s, "(") },
		Prefix2:         func(s string) bool { return strings.Trim(s, "01") == "" },
		Dewey:           func(s string) bool { return strings.Contains(s, ".") || s != "" },
		Float:           func(s string) bool { return strings.HasPrefix(s, "(") },
		PrimeBottomUp:   func(s string) bool { return s != "" },
		PrimeDecomposed: func(s string) bool { return s != "" },
	}
	for kind, check := range cases {
		doc, err := LoadString(libraryXML, Config{Scheme: kind})
		if err != nil {
			t.Fatal(err)
		}
		lbl := doc.Label(doc.Find("book")[0])
		if !check(lbl) {
			t.Errorf("%s: label render %q unexpected", kind, lbl)
		}
	}
	// Prime self-label accessor.
	doc, _ := LoadString(libraryXML, Config{Scheme: Prime})
	if doc.SelfLabel(doc.Find("book")[0]) == "" {
		t.Error("SelfLabel empty for prime scheme")
	}
	if doc.SelfLabel(Node{}) != "" {
		t.Error("SelfLabel of zero node should be empty")
	}
}

func TestZeroNodeSafety(t *testing.T) {
	doc := loadLibrary(t, Config{})
	var z Node
	if !z.IsZero() || z.Name() != "" || z.Text() != "" || z.Path() != "" || z.Depth() != 0 {
		t.Error("zero node accessors should be inert")
	}
	if doc.IsAncestor(z, doc.Root()) || doc.IsParent(z, doc.Root()) {
		t.Error("zero node relations should be false")
	}
	if _, err := doc.Before(z, doc.Root()); err == nil {
		t.Error("Before with zero node should fail")
	}
	if doc.LabelBits(z) != 0 || doc.Label(z) != "" {
		t.Error("zero node label should be empty")
	}
	if err := doc.Delete(z); err == nil {
		t.Error("Delete of zero node should fail")
	}
	if _, _, err := doc.WrapParent(z, "x"); err == nil {
		t.Error("WrapParent of zero node should fail")
	}
	if _, ok := z.Attr("x"); ok {
		t.Error("zero node attr")
	}
	if z.Children() != nil || !z.Parent().IsZero() {
		t.Error("zero node family")
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := LoadString("<a><b></a>", Config{}); err == nil {
		t.Error("malformed XML should fail")
	}
	if _, err := LoadString("<a/>", Config{Scheme: "bogus"}); err == nil {
		t.Error("unknown scheme should fail")
	}
	doc, _ := LoadString("<a/>", Config{})
	if _, err := doc.Query("///"); err == nil {
		t.Error("bad query should fail")
	}
}

func TestRoundTripXML(t *testing.T) {
	doc := loadLibrary(t, Config{})
	out := doc.XML()
	back, err := LoadString(out, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats() != doc.Stats() {
		t.Error("XML round trip changed structure")
	}
	var sb strings.Builder
	if err := doc.WriteXML(&sb, "  "); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<library>") {
		t.Error("WriteXML output wrong")
	}
}

func TestGenerateHelpers(t *testing.T) {
	ids := DatasetIDs()
	if len(ids) != 9 || ids["D8"] == "" {
		t.Fatalf("DatasetIDs = %v", ids)
	}
	d4, err := GenerateDataset("D4", Config{Scheme: Prime, PowerOfTwoLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	if d4.Stats().Elements != 1110 {
		t.Errorf("D4 elements = %d", d4.Stats().Elements)
	}
	if _, err := GenerateDataset("D0", Config{}); err == nil {
		t.Error("unknown dataset should fail")
	}

	plays, err := GeneratePlays(3, 2000, 2, Config{Scheme: Prime, TrackOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if plays.Stats().Elements != 2*2000+1 {
		t.Errorf("plays elements = %d", plays.Stats().Elements)
	}
	acts, err := plays.Query("//play//act[2]")
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) == 0 {
		t.Error("no second acts found")
	}

	hamlet, err := GenerateHamlet(Config{Scheme: Prime, TrackOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(hamlet.Find("act")); got != 5 {
		t.Errorf("hamlet acts = %d", got)
	}
}

func TestOrderSensitiveInsertEndToEnd(t *testing.T) {
	// The paper's headline scenario through the public API: insert a second
	// author without relabeling, and have order queries see it.
	src := `<paper><title/><author>Tom</author><author>John</author></paper>`
	doc, err := LoadString(src, Config{Scheme: Prime, TrackOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	authors := doc.Find("author")
	oldLabels := []string{doc.Label(authors[0]), doc.Label(authors[1])}
	mid, _, err := doc.InsertAfter(authors[0], "author")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Label(authors[0]) != oldLabels[0] || doc.Label(authors[1]) != oldLabels[1] {
		t.Error("ordered insert relabeled existing authors")
	}
	got, err := doc.Query("/paper/author[2]")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != mid {
		t.Error("author[2] should be the newly inserted node")
	}
}

func TestSaveAndLoadSaved(t *testing.T) {
	doc := loadLibrary(t, Config{Scheme: Prime, TrackOrder: true, PowerOfTwoLeaves: true})
	books := doc.Find("book")
	if _, _, err := doc.InsertAfter(books[0], "book"); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := doc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSaved(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	// Same structure, same labels, and updates keep working.
	if back.Stats() != doc.Stats() {
		t.Error("restored stats differ")
	}
	origBooks := doc.Find("book")
	backBooks := back.Find("book")
	for i := range origBooks {
		if doc.Label(origBooks[i]) != back.Label(backBooks[i]) {
			t.Fatalf("label %d differs after restore", i)
		}
	}
	if _, _, err := back.InsertAfter(backBooks[1], "book"); err != nil {
		t.Fatal(err)
	}
	hits, err := back.Query("//book[3]")
	if err != nil || len(hits) != 1 {
		t.Errorf("query after restore: %d hits, err %v", len(hits), err)
	}
	// Baseline schemes round-trip too (the full matrix lives in
	// TestSaveRoundTripAllSchemes); only the static study variants refuse.
	iv := loadLibrary(t, Config{Scheme: Interval})
	if err := iv.Save(&strings.Builder{}); err != nil {
		t.Errorf("interval Save: %v", err)
	}
	bu := loadLibrary(t, Config{Scheme: PrimeBottomUp})
	if err := bu.Save(&strings.Builder{}); !errors.Is(err, ErrUnsupportedPersist) {
		t.Errorf("bottom-up Save = %v, want ErrUnsupportedPersist", err)
	}
	if _, err := LoadSaved(strings.NewReader("junk")); err == nil {
		t.Error("LoadSaved of junk should fail")
	}
}

func TestValidate(t *testing.T) {
	for _, kind := range Schemes() {
		doc, err := LoadString(libraryXML, Config{Scheme: kind, TrackOrder: true, OrderPreserving: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := doc.Validate(); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
	// Validate after churn.
	doc := loadLibrary(t, Config{Scheme: Prime, TrackOrder: true, RecyclePrimes: true})
	for i := 0; i < 30; i++ {
		books := doc.Find("book")
		if _, _, err := doc.InsertAfter(books[i%len(books)], "book"); err != nil {
			t.Fatal(err)
		}
	}
	if err := doc.Validate(); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	doc := loadLibrary(t, Config{Scheme: Prime, TrackOrder: true})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch (g + i) % 4 {
				case 0:
					if _, err := doc.Query("//book//following::book"); err != nil {
						errs <- err
						return
					}
				case 1:
					books := doc.Find("book")
					if len(books) > 0 {
						doc.IsAncestor(doc.Root(), books[0])
						_, _ = doc.Before(doc.Root(), books[0])
					}
				case 2:
					books := doc.Find("book")
					if len(books) > 0 {
						if _, _, err := doc.InsertAfter(books[0], "book"); err != nil {
							errs <- err
							return
						}
					}
				default:
					_ = doc.MaxLabelBits()
					_ = doc.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
}

// stormConfigs is every Schemes() kind at its defaults plus the variants
// that add order: TrackOrder for the prime scheme, OrderPreserving for the
// prefix schemes.
func stormConfigs() []Config {
	var out []Config
	for _, kind := range Schemes() {
		out = append(out, Config{Scheme: kind})
	}
	return append(out,
		Config{Scheme: Prime, TrackOrder: true},
		Config{Scheme: Prefix1, OrderPreserving: true},
		Config{Scheme: Prefix2, OrderPreserving: true},
	)
}

// stormElements lists the document's elements in document order by
// walking Node handles, independently of the element table under test.
func stormElements(doc *Document) []Node {
	var out []Node
	var walk func(n Node)
	walk = func(n Node) {
		out = append(out, n)
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(doc.Root())
	return out
}

// TestQueryMatchesTreeEvalThroughUpdateStorm holds Document.Query to the
// tree-walking reference after every op of a seeded storm of inserts,
// wraps, deletes and rejected ops (deleting or wrapping the root), for
// every scheme configuration. The first query builds the element table;
// every later mutator must patch it, or drop it when the labeling fails.
// A configuration without order fails order-axis queries exactly as its
// Before does.
func TestQueryMatchesTreeEvalThroughUpdateStorm(t *testing.T) {
	queries := []string{
		"/library//book", "//section/book[2]", "//book//following::title",
		"//title//preceding::book", "//book//following-sibling::book",
		"//book//preceding-sibling::note", "//*", "/library/*", "//note[1]",
		"//section//title", "//*[3]//following::*",
	}
	tags := []string{"book", "note", "title"}
	for ci, cfg := range stormConfigs() {
		name := fmt.Sprintf("%s/order=%v/preserving=%v", cfg.Scheme, cfg.TrackOrder, cfg.OrderPreserving)
		doc := loadLibrary(t, cfg)
		_, orderErr := doc.Before(doc.Root(), doc.Find("book")[0])
		check := func(op int) {
			t.Helper()
			for _, q := range queries {
				want, err := xpath.TreeEvalString(doc.doc, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := doc.Query(q)
				if err != nil {
					if orderErr == nil || err.Error() != orderErr.Error() || !strings.Contains(q, "::") {
						t.Fatalf("%s op %d %s: %v (Before error %v)", name, op, q, err, orderErr)
					}
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("%s op %d %s: %d nodes, reference %d", name, op, q, len(got), len(want))
				}
				for i := range got {
					if got[i].n != want[i] {
						t.Fatalf("%s op %d %s: node %d differs from the reference", name, op, q, i)
					}
				}
			}
		}
		check(-1)
		rng := rand.New(rand.NewSource(int64(500 + ci)))
		for op := 0; op < 30; op++ {
			els := stormElements(doc)
			target := els[1+rng.Intn(len(els)-1)] // never the root
			tag := tags[rng.Intn(len(tags))]
			var err error
			switch k := rng.Intn(12); {
			case k < 3:
				_, _, err = doc.InsertChild(els[rng.Intn(len(els))], rng.Intn(4), tag)
			case k < 5:
				_, _, err = doc.InsertBefore(target, tag)
			case k < 7:
				_, _, err = doc.InsertAfter(target, tag)
			case k < 9:
				_, _, err = doc.WrapParent(target, tag)
			case k < 11:
				if len(els) > 8 {
					err = doc.Delete(target)
				}
			default:
				// The labeling rejects these: the table must not serve on.
				if doc.Delete(doc.Root()) == nil {
					t.Fatalf("%s op %d: deleting the root succeeded", name, op)
				}
				if _, _, werr := doc.WrapParent(doc.Root(), tag); werr == nil {
					t.Fatalf("%s op %d: wrapping the root succeeded", name, op)
				}
			}
			if err != nil {
				t.Fatalf("%s op %d: %v", name, op, err)
			}
			check(op)
		}
	}
}
