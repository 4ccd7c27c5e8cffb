package rdb

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"primelabel/internal/datasets"
	"primelabel/internal/labeling"
	"primelabel/internal/labeling/prefix"
	"primelabel/internal/labeling/prime"
)

// TestConcurrentReadersStraightFromBuild queries tables straight from Build
// from four goroutines at once, every axis under both planners. No read
// writes to a table, so the race detector must stay quiet. Prime with order
// tracking is ordered and reads order from rows; dewey has no order
// numbers, so its order joins ask Before per pair.
func TestConcurrentReadersStraightFromBuild(t *testing.T) {
	doc := datasets.Play(5, 3, 120)
	for _, sc := range []labeling.Scheme{
		prime.Scheme{Opts: prime.Options{TrackOrder: true}},
		prefix.DeweyScheme{},
	} {
		lab, err := sc.Label(doc.Clone())
		if err != nil {
			t.Fatal(err)
		}
		// Expected answers come from a separate table, so the tables under
		// test see nothing but the concurrent reads.
		ref := Build(lab)
		want := make([]RowSet, len(axisQueries))
		for i, q := range axisQueries {
			if want[i], err = ref.ExecPathString(q); err != nil {
				t.Fatalf("%s %s: %v", lab.SchemeName(), q, err)
			}
		}
		for _, plan := range []Planner{NestedLoop, Extent} {
			tab := Build(lab)
			tab.Plan = plan
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, q := range axisQueries {
						got, err := tab.ExecPathString(q)
						if err != nil {
							t.Errorf("%s plan %d %s: %v", lab.SchemeName(), plan, q, err)
							return
						}
						if !slices.Equal(got, want[i]) {
							t.Errorf("%s plan %d %s: %d rows, want %d", lab.SchemeName(), plan, q, len(got), len(want[i]))
							return
						}
					}
				}()
			}
			wg.Wait()
		}
	}
}

// TestDiffComparesOrdered pins that Diff reports a table whose ordered fact
// differs from the reference's, even when every column agrees.
func TestDiffComparesOrdered(t *testing.T) {
	lab, err := prime.Scheme{Opts: prime.Options{TrackOrder: true}}.Label(datasets.Play(3, 2, 40))
	if err != nil {
		t.Fatal(err)
	}
	tab, ref := Build(lab), Build(lab)
	if !tab.Ordered() {
		t.Fatal("prime table with order tracking is not ordered")
	}
	if err := tab.Diff(ref); err != nil {
		t.Fatalf("identical builds differ: %v", err)
	}
	tab.ordered = false
	if err := tab.Diff(ref); err == nil || !strings.Contains(err.Error(), "ordered") {
		t.Fatalf("Diff with only ordered differing = %v, want an ordered discrepancy", err)
	}
}
