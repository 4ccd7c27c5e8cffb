package xpath_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"primelabel/internal/labeling/prime"
	"primelabel/internal/rdb"
	"primelabel/internal/xpath"
)

// axisQueries exercises every supported axis at least once, including
// positional and attribute filters over multi-step paths.
var axisQueries = []string{
	"/play",                             // child of document
	"/play/act",                         // child
	"/play//line",                       // descendant
	"//speech",                          // descendant of document
	"/play//act[2]//line",               // descendant + position
	"//act[1]//following::line",         // following
	"//line[1]//preceding::speaker",     // preceding
	"//act//following-sibling::act",     // following-sibling
	"//scene//preceding-sibling::scene", // preceding-sibling
	"//title//following::speech",        // following from a leaf
	"//*",                               // wildcard
	"/play/*",                           // wildcard child
	"/play//bogus",                      // empty result
}

// parallelReaders is how many goroutines query one table at once in the
// tests below.
const parallelReaders = 4

// execConcurrently runs every query on tab from parallelReaders goroutines
// at once and returns, per query, each reader's result rendered with
// fmt.Sprint (or the error text).
func execConcurrently(tab *rdb.Table, queries []string) [][]string {
	got := make([][]string, len(queries))
	for i := range got {
		got[i] = make([]string, parallelReaders)
	}
	var wg sync.WaitGroup
	for r := 0; r < parallelReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i, q := range queries {
				ns, err := exec(tab, q)
				if err != nil {
					got[i][r] = "error: " + err.Error()
					continue
				}
				got[i][r] = fmt.Sprint(ns)
			}
		}(r)
	}
	wg.Wait()
	return got
}

// TestParallelParityAllAxes checks that a table straight from Build,
// queried from several goroutines at once, returns node for node the
// reference TreeEval's answer — for every axis, every labeling scheme and
// both planners. Under -race it also checks that no read writes to the
// table.
func TestParallelParityAllAxes(t *testing.T) {
	for name, s := range schemes() {
		doc := fixture(t)
		lab, err := s.Label(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range planners {
			got := execConcurrently(newTable(lab, pl.plan), axisQueries)
			for i, q := range axisQueries {
				want, err := xpath.TreeEvalString(doc, q)
				if err != nil {
					t.Fatal(err)
				}
				for r, g := range got[i] {
					if g != fmt.Sprint(want) {
						t.Errorf("%s %s %s: reader %d got %s, want %d reference nodes", name, pl.name, q, r, g, len(want))
					}
				}
			}
		}
	}
}

// TestParallelParityRandomDocs repeats the concurrent-reader check on
// random trees, holding the extent table's concurrent readers to both the
// tree reference and a sequential nested-loop table over the same labeling.
func TestParallelParityRandomDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	queries := []string{
		"/r//a", "//a/b", "//a//c", "//b//following::a",
		"//c//preceding::b", "//a//following-sibling::a",
		"//b//preceding-sibling::c", "//a[2]//b[1]", "//*",
	}
	for trial := 0; trial < 5; trial++ {
		doc := randTree(rng, 300)
		lab, err := (prime.Scheme{Opts: prime.Options{TrackOrder: true}}).Label(doc)
		if err != nil {
			t.Fatal(err)
		}
		seq := newTable(lab, rdb.NestedLoop)
		got := execConcurrently(newTable(lab, rdb.Extent), queries)
		for i, q := range queries {
			ref, err := xpath.TreeEvalString(doc, q)
			if err != nil {
				t.Fatal(err)
			}
			ns, err := exec(seq, q)
			if err != nil {
				t.Fatalf("nested loop %s: %v", q, err)
			}
			if fmt.Sprint(ns) != fmt.Sprint(ref) {
				t.Fatalf("trial %d %s: nested-loop table disagrees with reference (%d/%d nodes)",
					trial, q, len(ns), len(ref))
			}
			for r, g := range got[i] {
				if g != fmt.Sprint(ref) {
					t.Fatalf("trial %d %s: reader %d disagrees with reference", trial, q, r)
				}
			}
		}
	}
}
