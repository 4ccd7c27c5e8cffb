package rdb

import (
	"testing"

	"primelabel/internal/labeling/prime"
	"primelabel/internal/xpath"
)

// explainQueries covers every axis the executor dispatches on, plus
// positional and early-terminating shapes.
var explainQueries = []string{
	"/play//act[4]",
	"/play//act//persona",
	"//act[3]//following::act",
	"//act//following-sibling::act[2]",
	"//speech[4]//preceding::line",
	"//scene//preceding-sibling::scene",
	"/play/act/scene/speech",
	"/play//nothing", // empty result, early termination
}

// mustParse parses a test query, failing the test on a parse error.
func mustParse(t *testing.T, q string) xpath.Query {
	t.Helper()
	parsed, err := xpath.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return parsed
}

// TestExplainParityWithPlainExec pins the core explain contract at the
// executor level: the profiled run returns exactly the rows and stats of the
// unprofiled run, for every scheme and axis.
func TestExplainParityWithPlainExec(t *testing.T) {
	doc := playDoc()
	for name, s := range schemes() {
		work := doc.Clone()
		tab := buildTable(t, s, work)
		for _, q := range explainQueries {
			plain, plainStats, err := tab.ExecPathStats(mustParse(t, q))
			if err != nil {
				t.Fatalf("%s %s: %v", name, q, err)
			}
			var ex Explain
			profiled, profStats, err := tab.ExecPathExplain(mustParse(t, q), &ex)
			if err != nil {
				t.Fatalf("%s %s (explain): %v", name, q, err)
			}
			if len(plain) != len(profiled) {
				t.Errorf("%s %s: explain returned %d rows, plain %d", name, q, len(profiled), len(plain))
				continue
			}
			for i := range plain {
				if plain[i] != profiled[i] {
					t.Errorf("%s %s: row %d differs between explain and plain", name, q, i)
					break
				}
			}
			if plainStats.Candidates != profStats.Candidates {
				t.Errorf("%s %s: candidates %d with explain, %d without",
					name, q, profStats.Candidates, plainStats.Candidates)
			}
		}
	}
}

// TestExplainStepProfiles checks the recorded per-step numbers are
// internally consistent: one profile per executed step, candidate counts
// that sum to ExecStats.Candidates, and a final Emitted matching the result.
func TestExplainStepProfiles(t *testing.T) {
	tab := buildTable(t, prime.Scheme{Opts: prime.Options{TrackOrder: true}}, playDoc())

	var ex Explain
	rows, stats, err := tab.ExecPathExplain(mustParse(t, "/play/act/scene/speech"), &ex)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := xpath.Parse("/play/act/scene/speech")
	if len(ex.Steps) != len(q.Steps) {
		t.Fatalf("profiled %d steps, query has %d", len(ex.Steps), len(q.Steps))
	}
	sum := 0
	for i, st := range ex.Steps {
		if st.Axis != "child" {
			t.Errorf("step %d axis = %q, want child", i, st.Axis)
		}
		if st.Candidates < st.Emitted {
			t.Errorf("step %d emitted %d rows from %d candidates", i, st.Emitted, st.Candidates)
		}
		sum += st.Candidates
	}
	if sum != stats.Candidates {
		t.Errorf("step candidates sum %d != ExecStats.Candidates %d", sum, stats.Candidates)
	}
	if last := ex.Steps[len(ex.Steps)-1]; last.Emitted != len(rows) {
		t.Errorf("final step emitted %d, result has %d rows", last.Emitted, len(rows))
	}
	// Join steps (all but the first) record their pre-selection pair counts.
	for i, st := range ex.Steps[1:] {
		if st.Pairs < st.Emitted {
			t.Errorf("join step %d: %d pairs but %d emitted", i+1, st.Pairs, st.Emitted)
		}
	}

	// Positional metadata lands on the right step, and early termination
	// truncates the profile instead of inventing zero rows.
	ex = Explain{}
	if _, _, err := tab.ExecPathExplain(mustParse(t, "//act//following-sibling::act[2]"), &ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.Steps) != 2 || ex.Steps[1].Pos != 2 || ex.Steps[1].Axis != "following-sibling" {
		t.Errorf("positional step profile wrong: %+v", ex.Steps)
	}
	ex = Explain{}
	if _, _, err := tab.ExecPathExplain(mustParse(t, "/play//nothing//line"), &ex); err != nil {
		t.Fatal(err)
	}
	for _, st := range ex.Steps {
		if st.Name == "line" {
			t.Errorf("executor profiled a step past an empty context: %+v", ex.Steps)
		}
	}
}

// TestExplainOffAddsNoAllocations pins the zero-overhead claim: threading
// the nil collector through execPath must not allocate anything the
// stats-only path did not already allocate.
func TestExplainOffAddsNoAllocations(t *testing.T) {
	tab := buildTable(t, prime.Scheme{Opts: prime.Options{TrackOrder: true}}, playDoc())
	q, err := xpath.Parse("/play/act/scene/speech")
	if err != nil {
		t.Fatal(err)
	}
	// Warm once (lazy tag-index and pool setup allocate on first use).
	if _, _, err := tab.ExecPathExplain(q, nil); err != nil {
		t.Fatal(err)
	}
	baseline := testing.AllocsPerRun(50, func() {
		if _, _, err := tab.ExecPathStats(q); err != nil {
			t.Fatal(err)
		}
	})
	withNilCollector := testing.AllocsPerRun(50, func() {
		if _, _, err := tab.ExecPathExplain(q, nil); err != nil {
			t.Fatal(err)
		}
	})
	if withNilCollector > baseline {
		t.Errorf("nil explain collector allocates: %.1f allocs/op vs %.1f baseline",
			withNilCollector, baseline)
	}
}
