package server

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"primelabel/internal/buildinfo"
	"primelabel/internal/hist"
	"primelabel/internal/labeling/prime"
	"primelabel/internal/server/trace"
)

// endpointStats aggregates one logical endpoint (load, query, update, ...).
type endpointStats struct {
	requests atomic.Uint64
	errors   atomic.Uint64 // responses with status >= 400
	latency  *hist.Histogram
}

// endpointNames is the fixed set of instrumented endpoints; the map of
// stats is built once at startup and never written again, so handler
// goroutines can read it without locking.
var endpointNames = []string{
	"load", "list", "get", "delete", "query", "relation", "update", "update_batch", "healthz", "metrics", "traces",
	"querystats", "replicate", "replicate_digest", "promote", "topology",
}

// batchSizeBounds are the bucket upper bounds for the unitless group-commit
// batch-size histogram: how many journal frames one fsync covered.
var batchSizeBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Metrics is the server's metric registry: plain counters plus a latency
// histogram per endpoint and per traced stage, all atomics — no locks on
// the hot path and no dependencies outside the standard library. WriteText
// renders the Prometheus text exposition format, including Go runtime
// series (goroutines, heap, GC) sampled at scrape time.
type Metrics struct {
	start     time.Time
	documents atomic.Int64

	queries      atomic.Uint64
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	updates      atomic.Uint64
	relabeled    atomic.Uint64
	slowRequests atomic.Uint64
	endpoints    map[string]*endpointStats
	endpointList []string

	// Parallel-query counters: scans the executor sharded across workers
	// and the shards it spawned doing so.
	queryFanOuts atomic.Uint64
	queryShards  atomic.Uint64
	// Materialization-skipping terminals: count/exists-mode queries (no
	// node refs built) and streamed queries (refs built chunk by chunk
	// after the header left).
	queryCountMode atomic.Uint64
	queryStreamed  atomic.Uint64
	// ancestors counts ancestor-test outcomes (prefilter rejects, exact
	// divisions) across every prime-labeled document. The registry owns the
	// counters — rather than the labelings — so the series stay monotonic
	// when documents are replaced or deleted.
	ancestors prime.AncestorStats

	// Update-pipeline counters: failed update ops (validation failures,
	// labeling errors, journal failures — acknowledged successes only land
	// in updates/relabeled), and the full-vs-incremental reindex split that
	// makes the patch path's fallback rate observable.
	updateFailures   atomic.Uint64
	reindexFull      atomic.Uint64
	reindexIncr      atomic.Uint64
	journalBatchSize *hist.Histogram

	// Adaptive-freeze counters (see freeze.go): documents re-labeled into
	// the compact scheme because their update rate fell off, documents
	// thawed back by a write, and background freezes that failed or were
	// abandoned because a write raced the build. Per-backend relation-probe
	// latency splits the frozen path's constant-time comparisons from the
	// base scheme's (potentially big-integer) arithmetic.
	freezes        atomic.Uint64
	thaws          atomic.Uint64
	freezeFailures atomic.Uint64
	probeBase      *hist.Histogram
	probeFrozen    *hist.Histogram

	// stages holds one duration histogram per traced stage (the closed set
	// in trace.Stages), built once at startup and read without locking.
	stages map[string]*hist.Histogram

	// Durability counters (see internal/server/persist). All zero when the
	// server runs without a data directory.
	snapshots         atomic.Uint64
	snapshotBytes     atomic.Uint64
	snapshotNanos     atomic.Uint64
	journalRecords    atomic.Uint64
	journalBytes      atomic.Uint64
	journalFsyncs     atomic.Uint64
	journalFsyncNanos atomic.Uint64
	replayedRecords   atomic.Uint64
	recoveredDocs     atomic.Uint64
	persistErrors     atomic.Uint64

	// Replication counters, aggregated over all documents and labeled by
	// direction in the exposition: "out" is the primary side (streams served
	// to followers), "in" the follower side (stream pulled from the
	// primary). One node can be both at once — a chained replica — which is
	// why both directions live in one registry. Per-document follower gauges
	// (lag, applied records) are rendered by replica.Follower.WriteMetrics.
	replStreams      atomic.Int64  // active outbound streams (gauge)
	replStreamsTotal atomic.Uint64 // outbound streams accepted
	replBytesOut     atomic.Uint64
	replBytesIn      atomic.Uint64
	replRecordsOut   atomic.Uint64
	replRecordsIn    atomic.Uint64
	replSnapshotsOut atomic.Uint64
	replSnapshotsIn  atomic.Uint64
	replReconnects   atomic.Uint64 // follower-side stream reconnect attempts
	replRebases      atomic.Uint64 // follower-side divergence-point rejoins (journal probe + truncate)

	// Cluster-fabric counters (see internal/server/cluster). All zero when
	// the node runs without cluster configuration. promotions also counts
	// explicit POST /promote calls on non-clustered nodes.
	promotions       atomic.Uint64
	clusterProbes    atomic.Uint64
	clusterFailovers atomic.Uint64
	clusterDemotions atomic.Uint64
	clusterRedirects atomic.Uint64
}

// ObserveStage feeds one duration into a traced stage's histogram outside
// the per-request span path — used by replication, whose stream lifetimes
// and applies happen on background goroutines with no HTTP request of their
// own. Stages outside the fixed set are ignored.
func (m *Metrics) ObserveStage(stage string, d time.Duration) {
	if h, ok := m.stages[stage]; ok {
		h.Observe(d)
	}
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	m := &Metrics{
		start:            time.Now(),
		endpoints:        make(map[string]*endpointStats),
		stages:           make(map[string]*hist.Histogram),
		journalBatchSize: hist.New(batchSizeBounds),
		probeBase:        hist.NewDefault(),
		probeFrozen:      hist.NewDefault(),
	}
	for _, name := range endpointNames {
		m.endpoints[name] = &endpointStats{latency: hist.NewDefault()}
	}
	m.endpointList = endpointNames
	for _, stage := range trace.Stages {
		m.stages[stage] = hist.NewDefault()
	}
	return m
}

// observeRequest records one finished HTTP request.
func (m *Metrics) observeRequest(endpoint string, status int, d time.Duration) {
	es, ok := m.endpoints[endpoint]
	if !ok {
		return
	}
	es.requests.Add(1)
	if status >= 400 {
		es.errors.Add(1)
	}
	es.latency.Observe(d)
}

// observeSpans folds a completed trace's spans into the per-stage duration
// histograms. Stages outside the fixed set are skipped (the set is closed;
// a skip means a stage constant was added without registering it).
func (m *Metrics) observeSpans(spans []trace.Span) {
	for _, s := range spans {
		if h, ok := m.stages[s.Stage]; ok {
			h.Observe(s.Duration)
		}
	}
}

// Ancestors returns the registry-owned ancestor-test outcome counters.
// The store installs them on every prime labeling it hosts.
func (m *Metrics) Ancestors() *prime.AncestorStats {
	return &m.ancestors
}

// CacheHitRate returns the query cache hit fraction observed so far
// (0 when no query has run).
func (m *Metrics) CacheHitRate() float64 {
	h, miss := m.cacheHits.Load(), m.cacheMisses.Load()
	if h+miss == 0 {
		return 0
	}
	return float64(h) / float64(h+miss)
}

// WriteText renders every metric in the Prometheus text exposition format.
func (m *Metrics) WriteText(w io.Writer) {
	line := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }

	line("# HELP labeld_build_info Build identity (value is always 1; the information is in the labels).")
	line(`labeld_build_info{version=%q,go_version=%q,schemes=%q} 1`,
		buildinfo.Version, buildinfo.GoVersion(), strings.Join(buildinfo.Schemes, ","))
	line("# HELP labeld_uptime_seconds Seconds since the server started.")
	line("labeld_uptime_seconds %g", time.Since(m.start).Seconds())
	line("# HELP labeld_documents Documents currently hosted.")
	line("labeld_documents %d", m.documents.Load())
	line("# HELP labeld_queries_total XPath queries served (cache hits included).")
	line("labeld_queries_total %d", m.queries.Load())
	line("# HELP labeld_query_cache_hits_total Queries answered from the per-document LRU.")
	line("labeld_query_cache_hits_total %d", m.cacheHits.Load())
	line("# HELP labeld_query_cache_misses_total Queries executed against the element table.")
	line("labeld_query_cache_misses_total %d", m.cacheMisses.Load())
	line("# HELP labeld_query_cache_hit_rate Hit fraction over all queries.")
	line("labeld_query_cache_hit_rate %g", m.CacheHitRate())
	line("# HELP labeld_query_parallel_fanouts_total Query operator scans the executor sharded across workers.")
	line("labeld_query_parallel_fanouts_total %d", m.queryFanOuts.Load())
	line("# HELP labeld_query_parallel_shards_total Shards spawned by parallel operator scans.")
	line("labeld_query_parallel_shards_total %d", m.queryShards.Load())
	line("# HELP labeld_query_count_mode_total Count/exists-mode queries served without materializing node refs.")
	line("labeld_query_count_mode_total %d", m.queryCountMode.Load())
	line("# HELP labeld_query_streamed_total Queries served over the chunked NDJSON streaming endpoint.")
	line("labeld_query_streamed_total %d", m.queryStreamed.Load())
	line("# HELP labeld_query_fastpath_prefilter_rejects_total Ancestor tests rejected by the constant-time prefilter (depth, bit length, path signature) before any division ran.")
	line("labeld_query_fastpath_prefilter_rejects_total %d", m.ancestors.PrefilterRejects.Load())
	line("# HELP labeld_query_fastpath_exact_tests_total Ancestor tests that fell through to an exact division, by kind: u64 is a single machine-word modulo, big a big-integer remainder.")
	line(`labeld_query_fastpath_exact_tests_total{kind="u64"} %d`, m.ancestors.ExactU64.Load())
	line(`labeld_query_fastpath_exact_tests_total{kind="big"} %d`, m.ancestors.ExactBig.Load())
	line("# HELP labeld_query_fastpath_exact_true_total Exact ancestor tests that confirmed ancestry.")
	line("labeld_query_fastpath_exact_true_total %d", m.ancestors.ExactTrue.Load())
	line("# HELP labeld_query_fastpath_reject_ratio Fraction of non-ancestor outcomes the prefilter caught before any division (gauge).")
	line("labeld_query_fastpath_reject_ratio %g", m.ancestors.RejectRatio())
	line("# HELP labeld_updates_total Dynamic updates applied (insert, wrap, delete).")
	line("labeld_updates_total %d", m.updates.Load())
	line("# HELP labeld_relabeled_nodes_total Labels written by updates — the paper's relabeling cost, accumulated online.")
	line("labeld_relabeled_nodes_total %d", m.relabeled.Load())
	line("# HELP labeld_update_failures_total Update ops that failed (validation, labeling error, or journal failure) and were not acknowledged.")
	line("labeld_update_failures_total %d", m.updateFailures.Load())
	line("# HELP labeld_reindex_total Post-update index maintenance by kind: incremental patches the element table in place, full rebuilds it.")
	line(`labeld_reindex_total{kind="full"} %d`, m.reindexFull.Load())
	line(`labeld_reindex_total{kind="incremental"} %d`, m.reindexIncr.Load())
	line("# HELP labeld_slow_requests_total Requests that exceeded the slow-request threshold and were logged in full.")
	line("labeld_slow_requests_total %d", m.slowRequests.Load())
	line("# HELP labeld_freezes_total Documents re-labeled into the compact fixed-width scheme because their update rate fell below the freeze policy.")
	line("labeld_freezes_total %d", m.freezes.Load())
	line("# HELP labeld_thaws_total Frozen documents dropped back to their dynamic scheme by a write.")
	line("labeld_thaws_total %d", m.thaws.Load())
	line("# HELP labeld_freeze_failures_total Background freezes that failed or were abandoned because a write raced the re-label.")
	line("labeld_freeze_failures_total %d", m.freezeFailures.Load())
	line("# HELP labeld_probe_duration_seconds Relation-probe latency by serving backend: base is the document's own scheme, frozen the compact overlay.")
	writeHistogram(line, "labeld_probe_duration_seconds", "backend", "base", m.probeBase.Snapshot())
	writeHistogram(line, "labeld_probe_duration_seconds", "backend", "frozen", m.probeFrozen.Snapshot())

	line("# HELP labeld_snapshots_total Document snapshots written (initial, compaction, shutdown).")
	line("labeld_snapshots_total %d", m.snapshots.Load())
	line("# HELP labeld_snapshot_bytes_total Bytes of snapshot data written.")
	line("labeld_snapshot_bytes_total %d", m.snapshotBytes.Load())
	line("# HELP labeld_snapshot_seconds_total Time spent writing snapshots.")
	line("labeld_snapshot_seconds_total %g", float64(m.snapshotNanos.Load())/1e9)
	line("# HELP labeld_journal_records_total Update records appended to journals.")
	line("labeld_journal_records_total %d", m.journalRecords.Load())
	line("# HELP labeld_journal_bytes_total Bytes of framed journal records written.")
	line("labeld_journal_bytes_total %d", m.journalBytes.Load())
	line("# HELP labeld_journal_fsyncs_total Journal fsyncs performed (each may cover several records via group commit).")
	line("labeld_journal_fsyncs_total %d", m.journalFsyncs.Load())
	line("# HELP labeld_journal_fsync_seconds_total Time spent in journal fsyncs.")
	line("labeld_journal_fsync_seconds_total %g", float64(m.journalFsyncNanos.Load())/1e9)
	line("# HELP labeld_journal_batch_size Journal frames made durable per group-commit fsync (unitless histogram).")
	writeBareHistogram(line, "labeld_journal_batch_size", m.journalBatchSize.Snapshot())
	line("# HELP labeld_replayed_records_total Journal records replayed during recovery.")
	line("labeld_replayed_records_total %d", m.replayedRecords.Load())
	line("# HELP labeld_recovered_documents_total Documents restored from the data directory at startup.")
	line("labeld_recovered_documents_total %d", m.recoveredDocs.Load())
	line("# HELP labeld_persist_errors_total Durability-layer failures (snapshot, journal, cleanup).")
	line("labeld_persist_errors_total %d", m.persistErrors.Load())

	line("# HELP labeld_replication_streams Replication streams currently being served to followers (gauge).")
	line("labeld_replication_streams %d", m.replStreams.Load())
	line("# HELP labeld_replication_streams_total Replication stream connections accepted from followers.")
	line("labeld_replication_streams_total %d", m.replStreamsTotal.Load())
	line("# HELP labeld_replication_bytes_total Replication stream bytes by direction: out = served to followers, in = pulled from the primary.")
	line(`labeld_replication_bytes_total{direction="out"} %d`, m.replBytesOut.Load())
	line(`labeld_replication_bytes_total{direction="in"} %d`, m.replBytesIn.Load())
	line("# HELP labeld_replication_records_total Journal records streamed by direction: out = sent to followers, in = applied from the primary.")
	line(`labeld_replication_records_total{direction="out"} %d`, m.replRecordsOut.Load())
	line(`labeld_replication_records_total{direction="in"} %d`, m.replRecordsIn.Load())
	line("# HELP labeld_replication_snapshots_total Snapshot images shipped by direction: out = sent to followers, in = installed from the primary.")
	line(`labeld_replication_snapshots_total{direction="out"} %d`, m.replSnapshotsOut.Load())
	line(`labeld_replication_snapshots_total{direction="in"} %d`, m.replSnapshotsIn.Load())
	line("# HELP labeld_replication_reconnects_total Follower-side replication stream reconnect attempts.")
	line("labeld_replication_reconnects_total %d", m.replReconnects.Load())
	line("# HELP labeld_replication_rebases_total Follower documents re-joined at a probed divergence point instead of a snapshot re-ship.")
	line("labeld_replication_rebases_total %d", m.replRebases.Load())

	line("# HELP labeld_promotions_total Times this node promoted itself to primary (explicit POST /promote or cluster failover).")
	line("labeld_promotions_total %d", m.promotions.Load())
	line("# HELP labeld_cluster_probes_total Health-probe sweeps the cluster manager completed over the member list.")
	line("labeld_cluster_probes_total %d", m.clusterProbes.Load())
	line("# HELP labeld_cluster_failovers_total Failovers this node executed (self-promotions after its primary stayed unhealthy past the failover timeout).")
	line("labeld_cluster_failovers_total %d", m.clusterFailovers.Load())
	line("# HELP labeld_cluster_demotions_total Times this node demoted itself (re-followed a peer holding a higher fencing epoch, or re-targeted a promoted successor).")
	line("labeld_cluster_demotions_total %d", m.clusterDemotions.Load())
	line("# HELP labeld_cluster_redirects_total Write requests answered with a 307 redirect to the ring owner.")
	line("labeld_cluster_redirects_total %d", m.clusterRedirects.Load())

	// Go runtime series, sampled at scrape time.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	line("# HELP labeld_go_goroutines Goroutines currently running.")
	line("labeld_go_goroutines %d", runtime.NumGoroutine())
	line("# HELP labeld_go_heap_alloc_bytes Bytes of allocated heap objects.")
	line("labeld_go_heap_alloc_bytes %d", ms.HeapAlloc)
	line("# HELP labeld_go_heap_objects Allocated heap objects.")
	line("labeld_go_heap_objects %d", ms.HeapObjects)
	line("# HELP labeld_go_gc_cycles_total Completed GC cycles.")
	line("labeld_go_gc_cycles_total %d", ms.NumGC)
	line("# HELP labeld_go_gc_pause_seconds_total Cumulative GC stop-the-world pause time.")
	line("labeld_go_gc_pause_seconds_total %g", float64(ms.PauseTotalNs)/1e9)

	line("# HELP labeld_requests_total HTTP requests by endpoint.")
	for _, name := range m.endpointList {
		line(`labeld_requests_total{endpoint=%q} %d`, name, m.endpoints[name].requests.Load())
	}
	line("# HELP labeld_request_errors_total HTTP responses with status >= 400 by endpoint.")
	for _, name := range m.endpointList {
		line(`labeld_request_errors_total{endpoint=%q} %d`, name, m.endpoints[name].errors.Load())
	}
	line("# HELP labeld_request_duration_seconds Request latency histogram by endpoint.")
	for _, name := range m.endpointList {
		writeHistogram(line, "labeld_request_duration_seconds", "endpoint", name, m.endpoints[name].latency.Snapshot())
	}
	line("# HELP labeld_stage_duration_seconds Traced stage latency histogram (lock waits, XPath evaluation, relabeling, journal fsyncs, ...).")
	for _, stage := range trace.Stages {
		writeHistogram(line, "labeld_stage_duration_seconds", "stage", stage, m.stages[stage].Snapshot())
	}
}

// WriteCacheMetrics renders the per-document block in Prometheus
// exposition format, one series per hosted document sorted by name: the
// query-cache counter pair a dashboard divides for a per-document hit
// ratio, and the widest label gauge, the paper's label-size measure. Each
// width is read under that document's read lock (an O(1) read for prime
// labels). Written by the metrics handler after the registry's own
// series, since the values live on the documents rather than on Metrics.
func (s *Store) WriteCacheMetrics(w io.Writer) {
	s.mu.RLock()
	docs := make([]*document, 0, len(s.docs))
	for _, d := range s.docs {
		docs = append(docs, d)
	}
	s.mu.RUnlock()
	sort.Slice(docs, func(i, j int) bool { return docs[i].name < docs[j].name })
	fmt.Fprintln(w, "# HELP labeld_doc_query_cache_hits_total Queries answered from the document's generation-tagged cache, by document.")
	for _, d := range docs {
		hits, _ := d.cache.counters()
		fmt.Fprintf(w, "labeld_doc_query_cache_hits_total{doc=%q} %d\n", d.name, hits)
	}
	fmt.Fprintln(w, "# HELP labeld_doc_query_cache_misses_total Queries evaluated against the document's element table (stale-generation entries count as misses), by document.")
	for _, d := range docs {
		_, misses := d.cache.counters()
		fmt.Fprintf(w, "labeld_doc_query_cache_misses_total{doc=%q} %d\n", d.name, misses)
	}
	fmt.Fprintln(w, "# HELP labeld_doc_max_label_bits Bit length of the document's widest label (gauge), by document.")
	for _, d := range docs {
		d.mu.RLock()
		bits := d.lab.MaxLabelBits()
		d.mu.RUnlock()
		fmt.Fprintf(w, "labeld_doc_max_label_bits{doc=%q} %d\n", d.name, bits)
	}
}

// WriteQueryStatsMetrics renders the query-stats registry's aggregate
// series in Prometheus exposition format. The registry aggregates per
// (document, shape) internally, but the exposition stays shape-free — query
// shapes are unbounded label values; the per-shape detail lives on
// /debug/querystats instead. Totals are registry-wide and monotonic across
// LRU evictions.
func (s *Store) WriteQueryStatsMetrics(w io.Writer) {
	line := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
	qs := s.querystats
	calls, errs, cacheHits, frozenServes, evictions := qs.Totals()
	line("# HELP labeld_querystats_shapes Distinct (document, query shape) entries currently tracked (gauge).")
	line("labeld_querystats_shapes %d", qs.Len())
	line("# HELP labeld_querystats_shape_capacity Entry bound of the query-stats registry (gauge).")
	line("labeld_querystats_shape_capacity %d", qs.Capacity())
	line("# HELP labeld_querystats_evictions_total Shape entries evicted because the registry hit its capacity.")
	line("labeld_querystats_evictions_total %d", evictions)
	line("# HELP labeld_querystats_calls_total Queries folded into the query-stats registry.")
	line("labeld_querystats_calls_total %d", calls)
	line("# HELP labeld_querystats_errors_total Recorded queries that failed.")
	line("labeld_querystats_errors_total %d", errs)
	line("# HELP labeld_querystats_cache_hits_total Recorded queries answered from the query cache.")
	line("labeld_querystats_cache_hits_total %d", cacheHits)
	line("# HELP labeld_querystats_frozen_serves_total Recorded queries evaluated on a frozen compact overlay.")
	line("labeld_querystats_frozen_serves_total %d", frozenServes)
	line("# HELP labeld_querystats_latency_seconds Query latency as observed by the query-stats registry (all documents and shapes).")
	writeBareHistogram(line, "labeld_querystats_latency_seconds", qs.Latency())
	line("# HELP labeld_querystats_candidates Candidate rows scanned per uncached query (unitless histogram).")
	writeBareHistogram(line, "labeld_querystats_candidates", qs.Candidates())
}

// writeHistogram renders one histogram in Prometheus exposition form:
// cumulative _bucket lines, then _sum and _count.
func writeHistogram(line func(string, ...any), family, labelKey, labelVal string, s hist.Snapshot) {
	for i, bound := range s.Bounds {
		line(`%s_bucket{%s=%q,le=%q} %d`,
			family, labelKey, labelVal, strconv.FormatFloat(bound, 'g', -1, 64), s.Cumulative[i])
	}
	line(`%s_bucket{%s=%q,le="+Inf"} %d`, family, labelKey, labelVal, s.Cumulative[len(s.Cumulative)-1])
	line(`%s_sum{%s=%q} %g`, family, labelKey, labelVal, s.SumSeconds)
	line(`%s_count{%s=%q} %d`, family, labelKey, labelVal, s.Count)
}

// writeBareHistogram renders an unlabeled histogram (only the le bucket
// label) in Prometheus exposition form.
func writeBareHistogram(line func(string, ...any), family string, s hist.Snapshot) {
	for i, bound := range s.Bounds {
		line(`%s_bucket{le=%q} %d`, family, strconv.FormatFloat(bound, 'g', -1, 64), s.Cumulative[i])
	}
	line(`%s_bucket{le="+Inf"} %d`, family, s.Cumulative[len(s.Cumulative)-1])
	line(`%s_sum %g`, family, s.SumSeconds)
	line(`%s_count %d`, family, s.Count)
}
