package rdb

import (
	"testing"

	"primelabel/internal/datasets"
	"primelabel/internal/labeling/prime"
	"primelabel/internal/xpath"
)

// Both planners must return identical results for descendant-heavy
// queries.
func TestPlannersAgree(t *testing.T) {
	doc := datasets.Play(9, 4, 800)
	lab, err := (prime.Scheme{Opts: prime.Options{TrackOrder: true}}).Label(doc)
	if err != nil {
		t.Fatal(err)
	}
	nl := Build(lab)
	ext := Build(lab)
	ext.Plan = Extent
	queries := []string{
		"/play//line",
		"//act//speech",
		"//act[2]//line",
		"/play/act/scene/speech",
		"//scene//speaker",
	}
	for _, q := range queries {
		a, err := nl.ExecPathString(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ext.ExecPathString(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: nested-loop %d rows, extent %d", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: row %d differs", q, i)
			}
		}
	}
}

func TestExecPathQueryParse(t *testing.T) {
	doc := datasets.Play(9, 2, 100)
	lab, err := (prime.Scheme{}).Label(doc)
	if err != nil {
		t.Fatal(err)
	}
	tab := Build(lab)
	q, err := xpath.Parse("//scene[1]")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tab.ExecPath(q)
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows=%d err=%v", len(rows), err)
	}
}
