package xpath

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"primelabel/internal/labeling/prime"
	"primelabel/internal/xmltree"
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

// parallelReaders is how many goroutines query one warmed evaluator at
// once in the tests below.
const parallelReaders = 4

// evalConcurrently runs every query on ev from parallelReaders goroutines
// at once and returns, per query, each reader's result rendered with
// fmt.Sprint (or the error text).
func evalConcurrently(ev *Evaluator, queries []string) [][]string {
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
				ns, err := ev.EvalString(q)
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

// TestParallelParityAllAxes checks that a warmed evaluator queried from
// several goroutines at once returns node-for-node the sequential
// reference TreeEval's answer — for every axis and every labeling scheme.
// Under -race it also checks Warm's promise that evaluation then performs
// no internal writes.
func TestParallelParityAllAxes(t *testing.T) {
	for name, s := range schemes() {
		doc := fixture(t)
		lab, err := s.Label(doc)
		if err != nil {
			t.Fatal(err)
		}
		ev := New(lab)
		ev.Warm()
		got := evalConcurrently(ev, axisQueries)
		for i, q := range axisQueries {
			want, err := TreeEvalString(doc, q)
			if err != nil {
				t.Fatal(err)
			}
			for r, g := range got[i] {
				if g != fmt.Sprint(want) {
					t.Errorf("%s %s: reader %d got %s, want %d reference nodes", name, q, r, g, len(want))
				}
			}
		}
	}
}

// TestParallelParityRandomDocs repeats the concurrent-reader check on
// random trees, against both the tree reference and an unwarmed evaluator
// over the same labeling.
func TestParallelParityRandomDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	tags := []string{"a", "b", "c"}
	queries := []string{
		"/r//a", "//a/b", "//a//c", "//b//following::a",
		"//c//preceding::b", "//a//following-sibling::a",
		"//b//preceding-sibling::c", "//a[2]//b[1]", "//*",
	}
	for trial := 0; trial < 5; trial++ {
		root := xmltree.NewElement("r")
		nodes := []*xmltree.Node{root}
		for i := 1; i < 300; i++ {
			p := nodes[rng.Intn(len(nodes))]
			c := xmltree.NewElement(tags[rng.Intn(len(tags))])
			_ = p.AppendChild(c)
			nodes = append(nodes, c)
		}
		doc := xmltree.NewDocument(root)
		lab, err := (prime.Scheme{Opts: prime.Options{TrackOrder: true}}).Label(doc)
		if err != nil {
			t.Fatal(err)
		}
		cold := New(lab)
		warm := New(lab)
		warm.Warm()
		got := evalConcurrently(warm, queries)
		for i, q := range queries {
			ref, err := TreeEvalString(doc, q)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := cold.EvalString(q)
			if err != nil {
				t.Fatalf("cold %s: %v", q, err)
			}
			if fmt.Sprint(seq) != fmt.Sprint(ref) {
				t.Fatalf("trial %d %s: unwarmed evaluator disagrees with reference (%d/%d nodes)",
					trial, q, len(seq), len(ref))
			}
			for r, g := range got[i] {
				if g != fmt.Sprint(ref) {
					t.Fatalf("trial %d %s: reader %d disagrees with reference", trial, q, r)
				}
			}
		}
	}
}
