// Command labelload is a load generator for labeld. It loads a synthetic
// bookstore document, then drives the server with a mixed workload: worker
// goroutines issue XPath queries and label-relation probes while a
// configurable fraction of operations are order-sensitive inserts. It
// reports throughput, latency percentiles, and the server-side cache hit
// rate and relabel totals — the dynamic-update cost metric the paper
// optimizes.
//
// Every operation carries an X-Trace-Id of the form <run>-w<worker>-<op>,
// so any latency outlier in the report can be looked up in the server's
// /debug/traces buffer for a span-level breakdown.
//
// Usage:
//
//	labelload -addr http://127.0.0.1:8080 -workers 8 -ops 500 -write-ratio 0.05
//	labelload -addr http://primary:8080 -replicas http://replica1:8081,http://replica2:8082
//	labelload -cluster http://node1:8080,http://node2:8081
//
// With -replicas the load generator uses the replica-aware routed client:
// inserts go to the primary, queries round-robin across the replicas with
// stale answers retried on the primary, and the report breaks latency down
// per target so replica lag and fallback cost are visible. With -cluster it
// instead discovers the primary and replicas from the cluster's GET
// /topology and keeps re-reading it in the background, so a failover
// mid-run re-points writes at the promoted successor.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"primelabel/internal/buildinfo"
	"primelabel/internal/hist"
	"primelabel/internal/server/api"
	"primelabel/internal/server/client"
	"primelabel/internal/server/trace"
)

// queryMix is the rotating set of read operations each worker cycles
// through; the mix covers exact paths, descendant scans, positional steps,
// and order axes so both the cache and the structural-join planner see
// traffic.
var queryMix = []string{
	"//book",
	"//title",
	"/store/shelf[1]/book",
	"//book/price",
	"/store/shelf[2]//title",
	"/store/shelf[1]/book[1]/following-sibling::book",
}

func buildStore(shelves, books int) string {
	var b strings.Builder
	b.WriteString("<store>")
	for s := 0; s < shelves; s++ {
		b.WriteString("<shelf>")
		for i := 0; i < books; i++ {
			b.WriteString("<book><title>t</title><price>p</price></book>")
		}
		b.WriteString("</shelf>")
	}
	b.WriteString("</store>")
	return b.String()
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "labelload:", err)
		os.Exit(1)
	}
}

// report renders one latency histogram line: count plus interpolated
// percentiles from the same fixed-bucket histogram type the server exposes
// on /metrics, so labelload's numbers and the server's stage histograms are
// directly comparable.
func report(stdout io.Writer, kind string, h *hist.Histogram, max time.Duration) {
	snap := h.Snapshot()
	if snap.Count == 0 {
		return
	}
	fmt.Fprintf(stdout, "%-8s %6d ops  p50 %v  p95 %v  p99 %v  max %v\n",
		kind, snap.Count,
		snap.Quantile(0.50).Round(time.Microsecond),
		snap.Quantile(0.95).Round(time.Microsecond),
		snap.Quantile(0.99).Round(time.Microsecond),
		max.Round(time.Microsecond))
}

// sampleExplain measures the observability tax: it runs n queries from the
// mix with ?explain=1 and the same n without, prints one profile per distinct
// query shape, and reports p50/p95 for both modes side by side. The paired
// runs interleave (off, on, off, on, ...) so cache warm-up and background
// noise hit both modes equally.
func sampleExplain(stdout io.Writer, c *client.Routed, doc, runID string, n int) error {
	offHist, onHist := hist.NewDefault(), hist.NewDefault()
	var offMax, onMax time.Duration
	seen := make(map[string]bool)
	fmt.Fprintf(stdout, "explain sample (%d queries per mode):\n", n)
	for i := 0; i < n; i++ {
		q := queryMix[i%len(queryMix)]
		tc := c.WithTraceID(fmt.Sprintf("%s-explain-%d", runID, i))

		t0 := time.Now()
		if _, err := tc.Query(doc, q); err != nil {
			return fmt.Errorf("explain sample (plain) %q: %w", q, err)
		}
		d := time.Since(t0)
		offHist.Observe(d)
		if d > offMax {
			offMax = d
		}

		t0 = time.Now()
		resp, err := tc.QueryExplain(doc, q)
		if err != nil {
			return fmt.Errorf("explain sample %q: %w", q, err)
		}
		d = time.Since(t0)
		onHist.Observe(d)
		if d > onMax {
			onMax = d
		}

		if ex := resp.Explain; ex != nil && !seen[ex.Shape] {
			seen[ex.Shape] = true
			printProfile(stdout, q, ex)
		}
	}
	report(stdout, "explain=0", offHist, offMax)
	report(stdout, "explain=1", onHist, onMax)
	off, on := offHist.Snapshot(), onHist.Snapshot()
	fmt.Fprintf(stdout, "explain overhead: p50 %+v  p95 %+v\n",
		(on.Quantile(0.50) - off.Quantile(0.50)).Round(time.Microsecond),
		(on.Quantile(0.95) - off.Quantile(0.95)).Round(time.Microsecond))
	return nil
}

// printProfile renders one query's explain profile compactly: the planner
// summary line, then one line per axis step and per recorded stage timing.
func printProfile(stdout io.Writer, q string, ex *api.QueryExplain) {
	fmt.Fprintf(stdout, "  %s\n    shape %s  backend %s  cache_hit %v",
		q, ex.Shape, ex.Backend, ex.CacheHit)
	fmt.Fprintf(stdout, "  candidates %d", ex.Candidates)
	if ex.MaxLabelBits > 0 {
		fmt.Fprintf(stdout, "  max_label_bits %d", ex.MaxLabelBits)
	}
	fmt.Fprintln(stdout)
	for _, st := range ex.Steps {
		fmt.Fprintf(stdout, "    step %s::%s plan %s candidates %d pairs %d emitted %d\n",
			st.Axis, st.Name, st.JoinPlan, st.Candidates, st.Pairs, st.Emitted)
	}
	for _, sg := range ex.Stages {
		fmt.Fprintf(stdout, "    stage %s %.3fms\n", sg.Stage, sg.DurationMS)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("labelload", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "labeld base URL (the primary when -replicas is set)")
	replicas := fs.String("replicas", "", "comma-separated read-replica base URLs; queries round-robin across them with stale reads retried on the primary")
	cluster := fs.String("cluster", "", "comma-separated cluster seed URLs: discover the primary and replicas from GET /topology (overrides -addr/-replicas) and keep re-reading it, so the workload follows a failover")
	doc := fs.String("doc", "loadtest", "document name to create and drive")
	workers := fs.Int("workers", 8, "concurrent workers")
	ops := fs.Int("ops", 400, "operations per worker")
	writeRatio := fs.Float64("write-ratio", 0.05, "fraction of operations that are inserts")
	batch := fs.Int("batch", 1, "inserts per write operation; >1 sends them as one batch update request")
	shelves := fs.Int("shelves", 4, "shelves in the generated document")
	books := fs.Int("books", 25, "books per shelf in the generated document")
	scheme := fs.String("scheme", "prime", "labeling scheme for the document")
	explainSample := fs.Int("explain-sample", 0, "after the workload, run N queries with ?explain=1 (and N without), print their profiles, and report the p50/p95 explain overhead")
	countOnly := fs.Bool("count-only", false, "issue count-mode queries: the server returns only result counts, never materializing node refs")
	stream := fs.Bool("stream", false, "issue streamed queries: results arrive as NDJSON chunks via POST /docs/{name}/query/stream")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *countOnly && *stream {
		return fmt.Errorf("-count-only and -stream are mutually exclusive")
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("labelload"))
		return nil
	}
	if *workers < 1 || *ops < 1 {
		return fmt.Errorf("workers and ops must be positive")
	}

	var replicaList []string
	if *replicas != "" {
		for _, u := range strings.Split(*replicas, ",") {
			if u = strings.TrimSpace(u); u != "" {
				replicaList = append(replicaList, u)
			}
		}
	}

	// With no -replicas this routes everything to -addr, so the single-node
	// path is unchanged; with replicas, queries fan out and each target gets
	// its own latency histogram via the observer. With -cluster the routing
	// table comes from the cluster's own topology and refreshes in the
	// background, so a mid-run failover re-points writes at the successor.
	var c *client.Routed
	if *cluster != "" {
		var seeds []string
		for _, u := range strings.Split(*cluster, ",") {
			if u = strings.TrimSpace(u); u != "" {
				seeds = append(seeds, u)
			}
		}
		var err error
		if c, err = client.NewDiscovered(seeds, nil); err != nil {
			return fmt.Errorf("cluster discovery: %w", err)
		}
		stop := c.AutoRefresh(2 * time.Second)
		defer stop()
		fmt.Fprintf(stdout, "discovered cluster targets: %s\n", strings.Join(c.Targets(), ", "))
	} else {
		c = client.NewRouted(*addr, replicaList, nil)
	}
	type targetStat struct {
		hist *hist.Histogram
		mu   sync.Mutex
		max  time.Duration
		errs int
	}
	// Targets can grow mid-run (a topology refresh may surface nodes that
	// were not in the initial table), so stats are created on first sight.
	var targetMu sync.Mutex
	perTarget := make(map[string]*targetStat)
	statFor := func(target string) *targetStat {
		targetMu.Lock()
		defer targetMu.Unlock()
		st := perTarget[target]
		if st == nil {
			st = &targetStat{hist: hist.NewDefault()}
			perTarget[target] = st
		}
		return st
	}
	for _, t := range c.Targets() {
		statFor(t)
	}
	perTargetReport := len(replicaList) > 0 || *cluster != ""
	if perTargetReport {
		c.SetObserver(func(target, op string, d time.Duration, err error) {
			st := statFor(target)
			st.hist.Observe(d)
			st.mu.Lock()
			if d > st.max {
				st.max = d
			}
			if err != nil {
				st.errs++
			}
			st.mu.Unlock()
		})
	}
	runID := trace.GenID()
	info, err := c.WithTraceID(runID+"-load").Load(*doc, api.LoadRequest{
		XML:        buildStore(*shelves, *books),
		Scheme:     *scheme,
		TrackOrder: true,
	})
	if err != nil {
		return fmt.Errorf("load document: %w", err)
	}
	fmt.Fprintf(stdout, "loaded %q: %d elements, scheme %s, max label %d bits\n",
		info.Name, info.Elements, info.Scheme, info.MaxLabelBits)
	fmt.Fprintf(stdout, "trace run id %s (look up ops at /debug/traces)\n", runID)

	// Every writeEvery-th operation is an insert between existing siblings
	// — the paper's worst case for order maintenance.
	writeEvery := 0
	if *writeRatio > 0 {
		writeEvery = int(1 / *writeRatio)
	}

	// Shared histograms: Observe is atomic, so workers record concurrently.
	queryHist := hist.NewDefault()
	insertHist := hist.NewDefault()

	type result struct {
		queries   int
		inserts   int
		queryMax  time.Duration
		insertMax time.Duration
		err       error
	}
	results := make([]result, *workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			for i := 0; i < *ops; i++ {
				tc := c.WithTraceID(fmt.Sprintf("%s-w%d-%d", runID, w, i))
				t0 := time.Now()
				var err error
				if writeEvery > 0 && i%writeEvery == writeEvery-1 {
					// Always insert into the last shelf: its document-order
					// row id is unaffected by the new rows (they all land
					// inside its own subtree), so the id stays valid across
					// generations without re-resolving it — and within a
					// batch, so every op can name the same parent.
					shelf := 1 + (*shelves-1)*(1+*books*3)
					if *batch > 1 {
						breq := api.BatchUpdateRequest{Ops: make([]api.UpdateRequest, *batch)}
						for k := range breq.Ops {
							breq.Ops[k] = api.UpdateRequest{Op: api.OpInsert, Parent: shelf, Index: 0, Tag: "book"}
						}
						var bresp api.BatchUpdateResponse
						bresp, err = tc.UpdateBatch(*doc, breq)
						if err == nil && bresp.Failed >= 0 {
							err = fmt.Errorf("batch stopped at op %d: %s",
								bresp.Failed, bresp.Results[bresp.Failed].Error)
						}
						res.inserts += *batch
					} else {
						_, err = tc.Insert(*doc, shelf, 0, "book")
						res.inserts++
					}
					d := time.Since(t0)
					insertHist.Observe(d)
					if d > res.insertMax {
						res.insertMax = d
					}
				} else {
					q := queryMix[(w+i)%len(queryMix)]
					switch {
					case *countOnly:
						_, err = tc.QueryCount(*doc, q)
					case *stream:
						_, err = tc.QueryStream(*doc, q, func(api.StreamChunk) error { return nil })
					default:
						_, err = tc.Query(*doc, q)
					}
					d := time.Since(t0)
					queryHist.Observe(d)
					if d > res.queryMax {
						res.queryMax = d
					}
					res.queries++
				}
				if err != nil {
					res.err = fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	queries, inserts := 0, 0
	var queryMax, insertMax time.Duration
	for i := range results {
		if results[i].err != nil {
			return results[i].err
		}
		queries += results[i].queries
		inserts += results[i].inserts
		if results[i].queryMax > queryMax {
			queryMax = results[i].queryMax
		}
		if results[i].insertMax > insertMax {
			insertMax = results[i].insertMax
		}
	}
	total := queries + inserts

	fmt.Fprintf(stdout, "%d ops (%d queries, %d inserts) in %v: %.0f ops/s\n",
		total, queries, inserts, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())
	report(stdout, "queries", queryHist, queryMax)
	report(stdout, "inserts", insertHist, insertMax)

	if perTargetReport {
		fmt.Fprintln(stdout, "per-target latency (replica errors fall back to the primary):")
		targetMu.Lock()
		seen := make([]string, 0, len(perTarget))
		for tgt := range perTarget {
			seen = append(seen, tgt)
		}
		targetMu.Unlock()
		sort.Strings(seen)
		for _, tgt := range seen {
			st := statFor(tgt)
			st.mu.Lock()
			max, errs := st.max, st.errs
			st.mu.Unlock()
			snap := st.hist.Snapshot()
			if snap.Count == 0 {
				fmt.Fprintf(stdout, "  %s: no requests\n", tgt)
				continue
			}
			fmt.Fprintf(stdout, "  %s: %d reqs  p50 %v  p95 %v  p99 %v  max %v  errors %d\n",
				tgt, snap.Count,
				snap.Quantile(0.50).Round(time.Microsecond),
				snap.Quantile(0.95).Round(time.Microsecond),
				snap.Quantile(0.99).Round(time.Microsecond),
				max.Round(time.Microsecond), errs)
		}
	}

	if *explainSample > 0 {
		if err := sampleExplain(stdout, c, *doc, runID, *explainSample); err != nil {
			return err
		}
	}

	final, err := c.Info(*doc)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "document now at generation %d; %d nodes relabeled by %d inserts\n",
		final.Generation, final.Relabeled, inserts)
	if metrics, err := c.Metrics(); err == nil {
		for _, line := range strings.Split(metrics, "\n") {
			if strings.HasPrefix(line, "labeld_query_cache_hit_rate ") {
				fmt.Fprintf(stdout, "server cache hit rate: %s\n",
					strings.TrimPrefix(line, "labeld_query_cache_hit_rate "))
			}
		}
	}
	return nil
}
