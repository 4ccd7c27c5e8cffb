package server

// Query-path benchmarks: labeld's extent planner against the
// label-predicate nested-loop planner, the count() and streaming terminals,
// and the prime ancestor test's prefilter. `make bench-query` runs
// TestQueryBenchReport, which executes the measurements via
// testing.Benchmark and writes machine-readable results to the path in
// $BENCH_QUERY_JSON (BENCH_query.json).
//
// The fixture is deliberately deep: chains of nested elements whose label
// products overflow 64 bits, so a label-predicate join pays a big.Int
// remainder per ancestor test the prefilter cannot reject — the regime the
// paper's Section 5.2 join experiment lives in.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"primelabel/internal/labeling/prime"
	"primelabel/internal/rdb"
	"primelabel/internal/server/api"
)

// deepXML builds a document of `chains` independent chains, each nested
// `depth` deep, with `leaves` leaf children at every nesting level:
// 1 + chains*depth*(1+leaves) elements, and labels at the bottom of a
// chain carry depth-many prime factors — past 64 bits well before depth 10.
func deepXML(chains, depth, leaves int) string {
	var b strings.Builder
	b.WriteString("<r>")
	for c := 0; c < chains; c++ {
		for d := 0; d < depth; d++ {
			b.WriteString("<c>")
			for l := 0; l < leaves; l++ {
				b.WriteString("<l/>")
			}
		}
		for d := 0; d < depth; d++ {
			b.WriteString("</c>")
		}
	}
	b.WriteString("</r>")
	return b.String()
}

// loadQueryBench loads a deep document into a cache-disabled store and
// returns the store, the served document, a nested-loop table over the
// served labeling (every step a label-predicate join, the paper's Section
// 5.2 shape) and that prime labeling, whose fast path the benchmarks
// toggle.
func loadQueryBench(t testing.TB, chains, depth, leaves int) (*Store, *document, *rdb.Table, *prime.Labeling) {
	t.Helper()
	st := NewStore(NewMetrics(), 0) // no query cache: every query evaluates
	if _, err := st.Load(context.Background(), "bench", api.LoadRequest{
		XML:        deepXML(chains, depth, leaves),
		TrackOrder: true, // following/preceding need document order
	}); err != nil {
		t.Fatal(err)
	}
	d, err := st.get("bench")
	if err != nil {
		t.Fatal(err)
	}
	pl, ok := d.lab.(*prime.Labeling)
	if !ok {
		t.Fatalf("bench doc is %T, want *prime.Labeling", d.lab)
	}
	return st, d, rdb.Build(pl), pl
}

// benchExec measures one query executed on a table, with the fast path set
// as requested. Both columns of the extent comparison go through it, the
// served document's extent table and the nested-loop one alike. Toggling
// happens with no traffic in flight — the benchmark is the only client.
func benchExec(tab *rdb.Table, pl *prime.Labeling, query string, fast bool) func(b *testing.B) {
	return func(b *testing.B) {
		pl.SetFastPath(fast)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tab.ExecPathString(query); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// axisBenchQueries is the per-axis comparison set.
var axisBenchQueries = []struct{ axis, query string }{
	{"child", "//c/l"},
	{"descendant", "//c//l"},
	{"following", "//c[2]//following::c"},
	{"preceding", "//c[2]//preceding::c"},
}

func BenchmarkQueryDescendantBaseline(b *testing.B) {
	_, _, nl, pl := loadQueryBench(b, 8, 20, 74)
	benchExec(nl, pl, "//c//l", false)(b)
}

func BenchmarkQueryDescendantFast(b *testing.B) {
	_, _, nl, pl := loadQueryBench(b, 8, 20, 74)
	benchExec(nl, pl, "//c//l", true)(b)
}

// TestQueryBenchReport runs the extent-planner, count-mode and streaming
// comparisons through testing.Benchmark and writes BENCH_query.json to
// $BENCH_QUERY_JSON. Skipped unless that variable is set: this is `make
// bench-query`, not part of the regular test run. Beyond timings it checks
// two acceptance floors: the extent planner at least 5x the nested loop on
// the child and descendant axes, and a prefilter reject ratio >= 0.9.
func TestQueryBenchReport(t *testing.T) {
	out := os.Getenv("BENCH_QUERY_JSON")
	if out == "" {
		t.Skip("set BENCH_QUERY_JSON to run the query benchmark report")
	}

	// extentRow compares one query on the served document's extent table
	// against a nested-loop table over the same labeling, both executed
	// through rdb with the fast path on — the column isolates what the
	// document-order joins alone buy. JoinPlans records the per-step plan
	// the cost model picked, straight from EXPLAIN.
	type extentRow struct {
		Axis         string   `json:"axis"`
		Query        string   `json:"query"`
		JoinPlans    []string `json:"join_plans"`
		NestedloopNs float64  `json:"nestedloop_fast_ns_per_query"`
		ExtentNs     float64  `json:"extent_ns_per_query"`
		Speedup      float64  `json:"speedup"`
	}
	// modeReport compares the count() terminal against full node
	// materialization for the same query on the extent planner, and
	// streamReport the streamed terminal's time-to-first-byte against its
	// full delivery (both medians over repeated runs — wall-clock
	// measurements, not testing.Benchmark loops, because first-byte is a
	// point inside one call).
	type modeReport struct {
		Query   string  `json:"query"`
		NodesNs float64 `json:"nodes_ns_per_query"`
		CountNs float64 `json:"count_ns_per_query"`
		Speedup float64 `json:"speedup"`
	}
	type streamReport struct {
		Query       string  `json:"query"`
		Rows        int     `json:"rows"`
		FirstByteNs float64 `json:"first_byte_ns"`
		FullNs      float64 `json:"full_stream_ns"`
		// FirstByteFraction is first-byte latency as a share of full
		// delivery — small means the header leaves long before
		// materialization finishes.
		FirstByteFraction float64 `json:"first_byte_fraction"`
	}
	report := struct {
		MaxLabelBits int          `json:"max_label_bits"`
		RejectRatio  float64      `json:"fastpath_reject_ratio"`
		Extent       []extentRow  `json:"extent_planner"`
		CountMode    modeReport   `json:"count_mode"`
		Streaming    streamReport `json:"streaming"`
	}{}

	// The ~12k-element deep document.
	st, d, nl, pl := loadQueryBench(t, 8, 20, 74)
	report.MaxLabelBits = d.lab.MaxLabelBits()
	if report.MaxLabelBits <= 64 {
		t.Errorf("max label bits = %d; fixture too shallow to exercise the big.Int path", report.MaxLabelBits)
	}

	// Reject ratio, measured on a fresh counter over one full fast-path
	// evaluation of the descendant join on the nested-loop table (the
	// extent table runs no ancestor test).
	var stats prime.AncestorStats
	pl.SetStats(&stats)
	pl.SetFastPath(true)
	if _, err := nl.ExecPathString("//c//l"); err != nil {
		t.Fatal(err)
	}
	pl.SetStats(nil)
	report.RejectRatio = stats.RejectRatio()

	// Extent-planner series: each axis on the served extent table against
	// the nested-loop table. EXPLAIN supplies the per-step plan the cost
	// model picked, so the report records which join answered each row.
	ctx := context.Background()
	for _, q := range axisBenchQueries {
		exResp, err := st.QueryMode(ctx, "bench", q.query, api.QueryModeNodes, true)
		if err != nil {
			t.Fatal(err)
		}
		var plans []string
		for _, s := range exResp.Explain.Steps {
			plans = append(plans, s.JoinPlan)
		}
		nr := testing.Benchmark(benchExec(nl, pl, q.query, true))
		er := testing.Benchmark(benchExec(d.table, pl, q.query, true))
		report.Extent = append(report.Extent, extentRow{
			Axis:         q.axis,
			Query:        q.query,
			JoinPlans:    plans,
			NestedloopNs: float64(nr.NsPerOp()),
			ExtentNs:     float64(er.NsPerOp()),
			Speedup:      float64(nr.NsPerOp()) / float64(er.NsPerOp()),
		})
	}

	// Count-mode series: same store, same descendant query, node
	// materialization on one side and the count() terminal on the other.
	// The store is cache-disabled, so both sides evaluate every time — the
	// column is exactly the materialization cost.
	nodesR := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := st.Query(ctx, "bench", "//c//l"); err != nil {
				b.Fatal(err)
			}
		}
	})
	countR := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := st.QueryMode(ctx, "bench", "//c//l", api.QueryModeCount, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	report.CountMode = modeReport{
		Query:   "//c//l",
		NodesNs: float64(nodesR.NsPerOp()),
		CountNs: float64(countR.NsPerOp()),
		Speedup: float64(nodesR.NsPerOp()) / float64(countR.NsPerOp()),
	}

	// Streaming series: median time-to-first-byte (call start to header
	// emit) and full delivery over repeated streams of the 12k-row result.
	const streamRuns = 15
	var fbSamples, fullSamples []time.Duration
	streamRows := 0
	for i := 0; i < streamRuns; i++ {
		start := time.Now()
		var headerAt time.Time
		err := st.QueryStream(ctx, "bench", "//c//l", false, func(v any) error {
			if h, ok := v.(api.StreamHeader); ok {
				headerAt = time.Now()
				streamRows = h.Count
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		fbSamples = append(fbSamples, headerAt.Sub(start))
		fullSamples = append(fullSamples, time.Since(start))
	}
	median := func(ds []time.Duration) float64 {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return float64(ds[len(ds)/2])
	}
	report.Streaming = streamReport{
		Query:             "//c//l",
		Rows:              streamRows,
		FirstByteNs:       median(fbSamples),
		FullNs:            median(fullSamples),
		FirstByteFraction: median(fbSamples) / median(fullSamples),
	}
	if report.Streaming.FirstByteNs >= report.Streaming.FullNs {
		t.Errorf("streamed first byte (%.0fns) not ahead of full delivery (%.0fns)",
			report.Streaming.FirstByteNs, report.Streaming.FullNs)
	}

	if report.RejectRatio < 0.9 {
		t.Errorf("prefilter reject ratio %.3f below the 0.9 acceptance floor", report.RejectRatio)
	}
	for _, r := range report.Extent {
		if (r.Axis == "child" || r.Axis == "descendant") && r.Speedup < 5 {
			t.Errorf("extent %s speedup %.2fx below the 5x acceptance floor", r.Axis, r.Speedup)
		}
		if len(r.JoinPlans) == 0 {
			t.Errorf("extent %s row recorded no join plans", r.Axis)
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	// When $QUERYSTATS_JSON is also set, dump the bench store's query-stats
	// registry next to the report: the benchmarks above drove thousands of
	// queries through st.Query, so the snapshot shows the per-shape
	// aggregates a production /debug/querystats would for this workload.
	if qout := os.Getenv("QUERYSTATS_JSON"); qout != "" {
		snap, err := json.MarshalIndent(st.QueryStats().Snapshot("", 0), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(qout, append(snap, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range report.Extent {
		t.Logf("extent %-10s %-28s plans %v: nestedloop %.0fns, extent %.0fns (%.1fx)",
			r.Axis, r.Query, r.JoinPlans, r.NestedloopNs, r.ExtentNs, r.Speedup)
	}
	t.Logf("count mode %s: nodes %.0fns, count %.0fns (%.1fx)",
		report.CountMode.Query, report.CountMode.NodesNs, report.CountMode.CountNs, report.CountMode.Speedup)
	t.Logf("streaming %s (%d rows): first byte %.2fms, full %.2fms (%.1f%% of delivery)",
		report.Streaming.Query, report.Streaming.Rows,
		report.Streaming.FirstByteNs/1e6, report.Streaming.FullNs/1e6,
		100*report.Streaming.FirstByteFraction)
	t.Logf("prefilter reject ratio %.4f, max label bits %d",
		report.RejectRatio, report.MaxLabelBits)
	fmt.Printf("wrote %s\n", out)
}
