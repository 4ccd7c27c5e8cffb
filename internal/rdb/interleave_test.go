package rdb

import (
	"fmt"
	"strings"
	"testing"

	"primelabel/internal/labeling/prime"
	"primelabel/internal/xmlparse"
	"primelabel/internal/xmltree"
)

// TestQueryUpdateInterleaving drives the Table + Extent planner through
// repeated query -> InsertChildAt -> rebuild cycles, checking after every
// mutation that both planners agree with ground truth derived from the
// tree. A table built after an insert must see the post-relabel document
// order — order-sensitive axes like following-sibling would silently return
// wrong rows otherwise.
func TestQueryUpdateInterleaving(t *testing.T) {
	var b strings.Builder
	b.WriteString("<store>")
	booksPerShelf := []int{4, 3}
	for _, n := range booksPerShelf {
		b.WriteString("<shelf>")
		for i := 0; i < n; i++ {
			b.WriteString("<book><title>t</title></book>")
		}
		b.WriteString("</shelf>")
	}
	b.WriteString("</store>")
	doc, err := xmlparse.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	lab, err := prime.Scheme{Opts: prime.Options{TrackOrder: true, SCChunk: 5}}.New(doc)
	if err != nil {
		t.Fatal(err)
	}

	totalBooks := func() int {
		n := 0
		for _, c := range booksPerShelf {
			n += c
		}
		return n
	}
	// "//book/following-sibling::book" selects every book that follows
	// some book: all but the first book of each shelf.
	followers := func() int {
		n := 0
		for _, c := range booksPerShelf {
			if c > 1 {
				n += c - 1
			}
		}
		return n
	}

	// Inserted books are empty elements, so the title count never grows.
	titles := totalBooks()

	for cycle := 0; cycle < 12; cycle++ {
		st := Build(lab)
		st.Plan = Extent
		nl := Build(lab) // NestedLoop is the default plan

		checks := []struct {
			query string
			want  int
		}{
			{"//book", totalBooks()},
			{"/store/shelf[1]/book", booksPerShelf[0]},
			{"/store/shelf[2]/book", booksPerShelf[1]},
			{"//book/following-sibling::book", followers()},
			{"//shelf//title", titles},
		}
		// Query the same table repeatedly — the server's pattern.
		for pass := 0; pass < 2; pass++ {
			for _, c := range checks {
				got, err := st.ExecPathString(c.query)
				if err != nil {
					t.Fatalf("cycle %d %s: %v", cycle, c.query, err)
				}
				if len(got) != c.want {
					t.Fatalf("cycle %d pass %d %s: extent returned %d rows, want %d",
						cycle, pass, c.query, len(got), c.want)
				}
				ref, err := nl.ExecPathString(c.query)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(ref) {
					t.Fatalf("cycle %d %s: planners disagree: %v vs %v",
						cycle, c.query, got, ref)
				}
				// Result rows must come back in true document order per
				// the labeling itself, not a cached impression of it.
				for i := 1; i < len(got); i++ {
					before, err := lab.Before(st.Node(got[i-1]), st.Node(got[i]))
					if err != nil {
						t.Fatal(err)
					}
					if !before {
						t.Fatalf("cycle %d %s: rows %d,%d out of document order",
							cycle, c.query, got[i-1], got[i])
					}
				}
			}
		}

		// Mutate: insert a book at a shifting sibling position, the
		// order-maintenance worst case. Shelves are the root's element
		// children, all children are elements, so element index == raw
		// index.
		shelf := cycle % len(booksPerShelf)
		idx := cycle % (booksPerShelf[shelf] + 1)
		shelfNode := doc.Root.Children[shelf]
		if _, err := lab.InsertChildAt(shelfNode, idx, xmltree.NewElement("book")); err != nil {
			t.Fatalf("cycle %d insert: %v", cycle, err)
		}
		booksPerShelf[shelf]++
	}
}

// TestRebuildSeesInsertedOrder pins that a table built after an insert
// places the new node where the labeling's document order puts it, under
// both planners: the extent sibling join and the nested loop's row-order
// comparisons.
func TestRebuildSeesInsertedOrder(t *testing.T) {
	doc, err := xmlparse.ParseString("<r><s><a/><b/><c/></s></r>")
	if err != nil {
		t.Fatal(err)
	}
	lab, err := prime.Scheme{Opts: prime.Options{TrackOrder: true}}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	s := doc.Root.Children[0]
	if _, err := lab.InsertChildAt(s, 1, xmltree.NewElement("x")); err != nil {
		t.Fatal(err)
	}

	for _, plan := range []Planner{NestedLoop, Extent} {
		fresh := Build(lab)
		fresh.Plan = plan
		rows, err := fresh.ExecPathString("//a/following-sibling::x")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || fresh.Node(rows[0]).Name != "x" {
			t.Fatalf("plan %d: fresh table missed the inserted sibling: %v", plan, rows)
		}
		rows, err = fresh.ExecPathString("//x/following-sibling::b")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("plan %d: post-insert order not visible in fresh table: %v", plan, rows)
		}
	}
}
