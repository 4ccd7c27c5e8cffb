package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"primelabel/internal/labeling/prime"
	"primelabel/internal/rdb"
	"primelabel/internal/server/api"
	"primelabel/internal/xmlparse"
)

// setupRuns is how many times a run starts labeld and loads the corpus;
// setup_s is the median. One load varies by about a third from run to run.
const setupRuns = 5

// bench is one invocation: a workload, its seed and its mode.
type bench struct {
	w       *workload
	seed    int64
	seconds int
	traced  bool
	bin     string
	work    string

	corpus *corpus
	plan   *plan
	proc   *process
	conn   *conn
	dirs   []string

	attempted, failed int
	mismatches        []string
	// report holds every metric the run measured, printed as comment lines
	// above the result; notes are further comment lines.
	report map[string]metric
	notes  []string

	// HTTP window results.
	lat        []int64 // per measured op, ns
	wall       time.Duration
	serverCPU  time.Duration // labeld's CPU time in the window
	genCPU     time.Duration // the generator's CPU time in the window
	writeBody  [][]byte      // per op (whole plan), raw write responses
	before     map[string]float64
	after      map[string]float64
	relabels   []int // per update op, from labeld's responses
	insertsAll int
	finalInfo  api.DocInfo
}

func (b *bench) set(name string, v float64, unit string) { b.report[name] = metric{v, unit} }

func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.mismatches) < 5 {
		b.mismatches = append(b.mismatches, fmt.Sprintf(format, args...))
	}
}

func (b *bench) tempDir(tag string) string {
	d := filepath.Join(b.work, fmt.Sprintf("%s-%d-%d", tag, os.Getpid(), len(b.dirs)))
	b.dirs = append(b.dirs, d)
	return d
}

func (b *bench) run() (*result, error) {
	b.report = map[string]metric{}
	defer func() {
		for _, d := range b.dirs {
			os.RemoveAll(d)
		}
	}()
	start := time.Now()
	var err error
	if b.corpus, err = newCorpus(); err != nil {
		return nil, err
	}
	if b.plan, err = b.w.build(b.corpus, rand.New(rand.NewSource(b.seed)), b.seconds); err != nil {
		return nil, err
	}
	b.notes = append(b.notes, fmt.Sprintf("workload %s seed %d: %d warm + %d measured ops, inputs built in %.2fs",
		b.w.name, b.seed, b.plan.warm, len(b.plan.measured()), time.Since(start).Seconds()))

	type phase struct {
		name string
		fn   func() error
	}
	phases := []phase{{"setup", b.setup}, {"window", b.window}, {"checks", b.finish}}
	if b.traced {
		phases = append(phases, phase{"trace", b.trace})
	}
	var took []string
	for _, ph := range phases {
		t0 := time.Now()
		if err := ph.fn(); err != nil {
			return nil, err
		}
		took = append(took, fmt.Sprintf("%s %.1fs", ph.name, time.Since(t0).Seconds()))
	}
	b.notes = append(b.notes, "phases: "+strings.Join(took, ", "))
	res := &result{Metrics: map[string]metric{}}
	names := endToEnd
	if b.traced {
		names = perLayer
	}
	for _, nu := range names {
		m, ok := b.report[nu[0]]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", nu[0])
		}
		if m.Unit != nu[1] {
			return nil, fmt.Errorf("metric %s measured in %s, want %s", nu[0], m.Unit, nu[1])
		}
		res.Metrics[nu[0]] = m
	}
	for _, m := range b.mismatches {
		b.notes = append(b.notes, "MISMATCH "+m)
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0
	return res, nil
}

// setup starts labeld and loads the corpus setupRuns times, timing each
// from exec to the load's acknowledgement, and keeps the last instance
// running for the measured window. The durable workload starts each
// instance on a fresh data directory.
func (b *bench) setup() error {
	var times []float64
	for i := 0; i < setupRuns; i++ {
		var args []string
		if b.w.durable {
			args = []string{"-data-dir", b.tempDir("data")}
		}
		t0 := time.Now()
		p, err := startLabeld(b.bin, args...)
		if err != nil {
			return err
		}
		c := newConn(p.base)
		status, body, err := c.do(http.MethodPut, "/docs/"+docName, b.corpus.load)
		elapsed := time.Since(t0).Seconds()
		if err != nil || status != http.StatusCreated {
			p.kill()
			return fmt.Errorf("load corpus: status %d: %v %s", status, err, body)
		}
		times = append(times, elapsed)
		if i < setupRuns-1 {
			c.close()
			p.kill()
			if b.w.durable {
				os.RemoveAll(args[1])
			}
			continue
		}
		b.proc, b.conn = p, c
		var info api.DocInfo
		if err := json.Unmarshal(body, &info); err != nil {
			return fmt.Errorf("load response: %w", err)
		}
		b.notes = append(b.notes, fmt.Sprintf("corpus: %d elements, %d bytes of XML, max label %d bits",
			info.Elements, len(b.corpus.xml), info.MaxLabelBits))
	}
	b.set("setup_s", median(times), "s")
	return nil
}

// send runs ops in the closed loop, checking each answer; lat, when
// non-nil, receives each op's latency.
func (b *bench) send(ops []op, first int, lat []int64) {
	path := "/docs/" + docName
	for i := range ops {
		o := &ops[i]
		t0 := time.Now()
		status, body, err := b.conn.do(http.MethodPost, path+o.path, o.body)
		if lat != nil {
			lat[i] = time.Since(t0).Nanoseconds()
		}
		b.attempted++
		switch {
		case err != nil:
			b.fail("op %d: %v", first+i, err)
		case status != http.StatusOK:
			b.fail("op %d: status %d: %s", first+i, status, body)
		case o.want != nil:
			if !bytes.Equal(body, o.want) {
				b.fail("op %d %s: got %.200s want %.200s", first+i, o.body, body, o.want)
			}
		default:
			b.writeBody[first+i] = append([]byte(nil), body...)
		}
	}
}

// window runs the warm ops, then the measured ops between two readings of
// labeld's CPU time, the generator's CPU time and labeld's /metrics.
func (b *bench) window() error {
	b.writeBody = make([][]byte, len(b.plan.ops))
	b.send(b.plan.ops[:b.plan.warm], 0, nil)
	measured := b.plan.measured()
	b.lat = make([]int64, len(measured))
	var err error
	if b.before, err = b.conn.scrape(); err != nil {
		return err
	}
	// The generator runs on one thread and collects no garbage inside the
	// window, so it takes as little CPU from labeld as it can.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	first, err := b.clock()
	if err != nil {
		return err
	}
	b.send(measured, b.plan.warm, b.lat)
	last, err := b.clock()
	if err != nil {
		return err
	}
	b.wall, b.serverCPU, b.genCPU = last.wall.Sub(first.wall), last.server-first.server, last.gen-first.gen
	if b.after, err = b.conn.scrape(); err != nil {
		return err
	}
	rss, err := peakRSS(b.proc.pid())
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", rss, "MiB")
	if rss, err = peakRSS(os.Getpid()); err != nil {
		return err
	}
	b.set("generator_peak_rss_mb", rss, "MiB")
	b.checkWrites()
	status, body, err := b.conn.do(http.MethodGet, "/docs/"+docName, nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("document info: status %d: %v", status, err)
	}
	if err := json.Unmarshal(body, &b.finalInfo); err != nil {
		return err
	}
	b.set("max_label_bits", float64(b.finalInfo.MaxLabelBits), "bits")
	b.conn.close()
	return nil
}

// finish stops labeld — for the durable workload through checkDurable —
// and computes the end-to-end metrics.
func (b *bench) finish() error {
	if b.w.durable {
		if err := b.checkDurable(); err != nil {
			return err
		}
	} else if err := b.proc.stop(); err != nil {
		return err
	}
	b.endToEnd()
	return nil
}

// reading is a point on the window's clocks: wall time, and the CPU time
// labeld and the generator have used.
type reading struct {
	wall        time.Time
	server, gen time.Duration
}

func (b *bench) clock() (reading, error) {
	server, err := cpuTime(b.proc.pid())
	if err != nil {
		return reading{}, err
	}
	gen, err := cpuTime(os.Getpid())
	return reading{time.Now(), server, gen}, err
}

// checkWrites decodes the write responses and checks their generations and
// node ids against the simulation's; it keeps labeld's relabel counts.
func (b *bench) checkWrites() {
	for i := range b.plan.ops {
		o := &b.plan.ops[i]
		if o.kind != opWrite || b.writeBody[i] == nil {
			continue
		}
		b.insertsAll += o.inserts()
		var gen uint64
		var nodes, relabels []int
		if o.upd != nil {
			var r api.UpdateResponse
			if err := json.Unmarshal(b.writeBody[i], &r); err != nil {
				b.fail("write %d: %v", i, err)
				continue
			}
			gen, nodes, relabels = r.Generation, []int{r.Node}, []int{r.Relabeled}
		} else {
			var r api.BatchUpdateResponse
			if err := json.Unmarshal(b.writeBody[i], &r); err != nil || r.Failed != -1 {
				b.fail("batch %d: failed op %d: %v", i, r.Failed, err)
				continue
			}
			gen = r.Generation
			for _, res := range r.Results {
				nodes = append(nodes, res.Node)
				relabels = append(relabels, res.Relabeled)
			}
		}
		b.relabels = append(b.relabels, relabels...)
		if gen != o.wantGen || fmt.Sprint(nodes) != fmt.Sprint(o.wantNodes) {
			b.fail("write %d: generation %d nodes %v, want %d %v", i, gen, nodes, o.wantGen, o.wantNodes)
		}
	}
}

// checkDurable finishes ordered_writes: graceful shutdown (final snapshot,
// empty journal), the data directory's size, an in-process replay of the op
// log compared with what labeld reported, and a restart on the same data
// directory that must come back with every acknowledged write.
func (b *bench) checkDurable() error {
	dir := b.dirs[len(b.dirs)-1]
	if err := b.proc.stop(); err != nil {
		return err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	info := b.finalInfo
	b.set("disk_bytes_per_element", float64(size)/float64(info.Elements), "B")

	// Replay: the same writes through the labeling and the element table,
	// in-process, with no server in between. The traced run compares its
	// own replay instead.
	if !b.traced {
		rp, err := newReplayer(b.corpus, newRecorder(false), "", "")
		if err != nil {
			return err
		}
		for i := range b.plan.ops {
			if b.plan.ops[i].kind == opWrite {
				if _, err := rp.apply(&b.plan.ops[i]); err != nil {
					return fmt.Errorf("replay op %d: %w", i, err)
				}
			}
		}
		b.compareReplay(rp)
	}

	// Restart on the same directory.
	p, err := startLabeld(b.bin, "-data-dir", dir)
	if err != nil {
		return err
	}
	c := newConn(p.base)
	defer c.close()
	b.attempted++
	status, body, err := c.do(http.MethodGet, "/docs/"+docName, nil)
	var again api.DocInfo
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &again)
	}
	if err != nil || status != http.StatusOK {
		b.fail("after restart: status %d: %v", status, err)
	} else if again.Generation != info.Generation || again.Elements != info.Elements ||
		again.Relabeled != info.Relabeled || again.MaxLabelBits != info.MaxLabelBits {
		b.fail("after restart: %+v, before %+v", again, info)
	}
	last := &b.plan.ops[len(b.plan.ops)-1]
	b.attempted++
	status, body, err = c.do(http.MethodPost, "/docs/"+docName+last.path, last.body)
	if err != nil || status != http.StatusOK || !bytes.Equal(body, last.want) {
		b.fail("after restart %s: %d %s want %s", last.body, status, body, last.want)
	}
	return p.stop()
}

// compareReplay checks an in-process replay of the run's writes against
// what labeld reported: every write's relabel count, and the final
// generation, element count, relabel total and label size.
func (b *bench) compareReplay(rp *replayer) {
	info := b.finalInfo
	b.attempted += 2
	if fmt.Sprint(rp.relabels) != fmt.Sprint(b.relabels) {
		b.fail("replayed relabel counts differ from labeld's")
	}
	got := fmt.Sprintf("generation %d elements %d relabeled %d max_label_bits %d", info.Generation, info.Elements, info.Relabeled, info.MaxLabelBits)
	want := fmt.Sprintf("generation %d elements %d relabeled %d max_label_bits %d", rp.gen, rp.table.Len(), rp.relabeled, rp.lab.MaxLabelBits())
	if got != want {
		b.fail("labeld reports %s, the replay %s", got, want)
	}
}

// endToEnd computes the end-to-end metrics of the HTTP window.
func (b *bench) endToEnd() {
	measured := b.plan.measured()
	byKind := map[opKind][]float64{}
	for i, o := range measured {
		byKind[o.kind] = append(byKind[o.kind], float64(b.lat[i])/1e6)
	}
	n := float64(len(measured))
	b.set("ops_per_s", n/b.wall.Seconds(), "ops/s")
	b.set("cpu_ms_per_op", b.serverCPU.Seconds()*1e3/n, "ms")
	b.set("generator_cpu_ms_per_op", b.genCPU.Seconds()*1e3/n, "ms")
	b.set("failed_share", float64(b.failed)/float64(b.attempted), "ratio")
	for kind, prefix := range map[opKind]string{opQuery: "query", opProbe: "probe", opWrite: "update"} {
		l := byKind[kind]
		if len(l) == 0 {
			continue
		}
		sort.Float64s(l)
		b.set(prefix+"_p50_ms", quantile(l, 0.5), "ms")
		b.set(prefix+"_samples", float64(len(l)), "count")
		q := 0.99
		if tail := 1 - 10/float64(len(l)); tail < q {
			q = tail
			b.notes = append(b.notes, fmt.Sprintf("%s: %d samples, so the tail percentile reported as p99 is p%.1f", prefix, len(l), 100*q))
		}
		if q > 0.5 {
			b.set(prefix+"_p99_ms", quantile(l, q), "ms")
		}
	}
	if b.w.durable {
		total := 0
		for _, r := range b.relabels {
			total += r
		}
		b.set("relabels_per_insert", float64(total)/float64(b.insertsAll), "labels")
	}
	// Generator guard: in a closed loop the generator is the bottleneck when
	// it burns more CPU per op than labeld does.
	ratio := b.genCPU.Seconds() / math.Max(b.serverCPU.Seconds(), 1e-9)
	b.set("generator_cpu_ratio", ratio, "ratio")
	if ratio >= 1 {
		b.notes = append(b.notes, fmt.Sprintf("GENERATOR-BOUND: the generator used %.2fx labeld's CPU per op", ratio))
	}
}

// trace replays the run's op sequence in-process with spans, then a
// coverage tail for op classes the workload lacks, and computes the
// per-layer metrics.
func (b *bench) trace() error {
	c := b.corpus
	if err := b.setupLayers(); err != nil {
		return err
	}
	rec := newRecorder(true)
	rp, err := newReplayer(c, rec, b.tempDir("layer"), b.tempDir("store"))
	if err != nil {
		return err
	}
	defer rp.close()
	ops := b.plan.ops
	for i := range ops {
		out, err := rp.apply(&ops[i])
		if err != nil {
			return fmt.Errorf("traced replay op %d: %w", i, err)
		}
		if ops[i].want == nil {
			continue
		}
		b.attempted++
		if !bytes.Equal(out, ops[i].want) {
			b.fail("traced replay op %d: got %.200s want %.200s", i, out, ops[i].want)
		}
	}
	if b.w.durable {
		b.compareReplay(rp)
	}
	workOps := int32(len(ops))
	snapsBefore := len(rp.rec.spans)
	rp.phase = 1
	tail := coverageTail(c, b.seed, ops)
	for i := range tail {
		if _, err := rp.apply(&tail[i]); err != nil {
			return fmt.Errorf("coverage tail op %d: %w", i, err)
		}
	}
	if countSpans(rec.spans[:snapsBefore], "persist.snapshot") == 0 {
		if err := rp.compact(context.Background()); err != nil {
			return err
		}
	}
	phaseOf := func(op int32) int {
		if op < workOps {
			return 0
		}
		return 1
	}
	st := summarize(rec.spans, phaseOf)
	spanMean := func(metricName, spanName string) {
		s := st[0]
		if s.calls[spanName] == 0 {
			s = st[1]
		}
		b.set(metricName, float64(s.ns[spanName])/float64(max(1, s.calls[spanName]))/1e6, "ms")
	}
	for _, m := range [][2]string{
		{"http.decode_ms", "http.decode"}, {"http.encode_ms", "http.encode"},
		{"xpath.parse_ms", "xpath.parse"}, {"rdb.exec_ms", "rdb.exec"},
		{"rdb.patch_insert_ms", "rdb.patch_insert"}, {"rdb.patch_delete_ms", "rdb.patch_delete"},
		{"labeling.max_label_bits_ms", "labeling.max_label_bits"},
		{"labeling.ancestor_ms", "labeling.ancestor"}, {"labeling.parent_ms", "labeling.parent"},
		{"labeling.before_ms", "labeling.before"},
		{"labeling.insert_ms", "labeling.insert"}, {"labeling.delete_ms", "labeling.delete"},
		{"xmltree.materialize_ms", "xmltree.materialize"},
		{"persist.append_ms", "persist.append"}, {"persist.commit_ms", "persist.commit"},
		{"persist.snapshot_ms", "persist.snapshot"},
	} {
		spanMean(m[0], m[1])
	}
	ratio := func(metricName, num, den, unit string) {
		t := rp.tallies[0]
		if t.sums[den] == 0 {
			t = rp.tallies[1]
		}
		b.set(metricName, t.sums[num]/math.Max(t.sums[den], 1), unit)
	}
	ratio("http.response_bytes", "response_bytes", "responses", "B")
	ratio("rdb.candidates_per_result", "candidates", "results", "rows")
	ratio("labeling.fastpath_reject_ratio", "prefilter_rejects", "ancestor_tests", "ratio")
	ratio("labeling.relabeled_per_insert", "insert_relabeled", "inserts", "labels")
	ratio("persist.bytes_per_record", "journal_bytes", "records", "B")
	snaps := countSpans(rec.spans[:snapsBefore], "persist.snapshot")
	if snaps == 0 {
		snaps = countSpans(rec.spans[snapsBefore:], "persist.snapshot")
	}
	b.set("persist.snapshots", float64(snaps), "count")

	for kind, name := range map[opKind]string{opQuery: "store.query_ms", opProbe: "store.probe_ms", opWrite: "store.update_ms"} {
		t := rp.tallies[0]
		if t.storeCalls[kind] == 0 {
			t = rp.tallies[1]
		}
		b.set(name, float64(t.storeNs[kind])/float64(max(1, t.storeCalls[kind]))/1e6, "ms")
	}
	t0 := rp.tallies[0]
	calls := 0
	for _, n := range t0.storeCalls {
		calls += n
	}
	b.set("store.self_ms", float64(t0.storeSelf)/float64(max(1, calls))/1e6, "ms")
	b.set("store.cache_hit_ratio", t0.sums["store_hits"]/math.Max(float64(t0.storeCalls[opQuery]), 1), "ratio")

	// unaccounted: each measured op's HTTP latency not covered by the layer
	// spans of its replay (labeld compacts in the background, so snapshots
	// are left out of the cover).
	covered := make([]int64, len(ops))
	for _, s := range rec.spans {
		if s.parent >= 0 && s.op < workOps && rec.spans[s.parent].parent < 0 && s.name != "persist.snapshot" {
			covered[s.op] += s.end - s.start
		}
	}
	var un, wall int64
	for i, l := range b.lat {
		un += max(0, l-covered[b.plan.warm+i])
		wall += l
	}
	b.set("unaccounted_share", float64(un)/float64(wall), "ratio")
	b.set("trace.spans", float64(len(rec.spans)), "count")
	if bad := checkSpans(rec.spans); bad > 0 {
		b.attempted++
		b.fail("%d traced ops whose spans do not nest", bad)
	}
	if err := b.overhead(); err != nil {
		return err
	}
	b.set("generator.cpu_ms_per_op", b.report["generator_cpu_ms_per_op"].Value, "ms")
	b.set("generator.cpu_ratio", b.report["generator_cpu_ratio"].Value, "ratio")
	for _, m := range [][2]string{
		{"counter.cache_hits", "labeld_query_cache_hits_total"},
		{"counter.cache_misses", "labeld_query_cache_misses_total"},
		{"counter.reindex_incremental", `labeld_reindex_total{kind="incremental"}`},
		{"counter.reindex_full", `labeld_reindex_total{kind="full"}`},
		{"counter.journal_records", "labeld_journal_records_total"},
		{"counter.journal_bytes", "labeld_journal_bytes_total"},
		{"counter.journal_fsyncs", "labeld_journal_fsyncs_total"},
		{"counter.snapshots", "labeld_snapshots_total"},
		{"counter.fastpath_rejects", "labeld_query_fastpath_prefilter_rejects_total"},
		{"counter.gc_cycles", "labeld_go_gc_cycles_total"},
	} {
		unit := "count"
		if strings.HasSuffix(m[0], "_bytes") {
			unit = "B"
		}
		b.set(m[0], b.after[m[1]]-b.before[m[1]], unit)
	}
	return nil
}

// overheadOps is how many leading ops the tracing-overhead comparison
// replays, twice with spans and twice with the no-op recorder.
const overheadOps = 400

// overhead replays the first overheadOps ops on fresh copies of the
// document, with the no-op recorder and with spans, never with a store copy
// interleaved, and compares their wall times.
func (b *bench) overhead() error {
	n := min(overheadOps, len(b.plan.ops))
	replay := func(on bool) (int64, error) {
		var dir string
		if b.w.durable {
			dir = b.tempDir("overhead")
		}
		rp, err := newReplayer(b.corpus, newRecorder(on), dir, "")
		if err != nil {
			return 0, err
		}
		defer rp.close()
		var total int64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if _, err := rp.apply(&b.plan.ops[i]); err != nil {
				return 0, err
			}
			total += time.Since(t0).Nanoseconds()
		}
		return total, nil
	}
	// Plain, traced, traced, plain: whatever the first replay pays for a
	// cold process, or the machine drifts by, falls on both sides.
	var plain, traced int64
	for _, on := range []bool{false, true, true, false} {
		ns, err := replay(on)
		if err != nil {
			return err
		}
		if on {
			traced += ns
		} else {
			plain += ns
		}
	}
	b.set("trace.overhead_share", float64(traced)/float64(plain)-1, "ratio")
	return nil
}

// setupLayers times the three set-up layers — parsing the XML, labeling
// the tree, building and warming the element table — three times each and
// keeps the medians.
func (b *bench) setupLayers() error {
	var parse, label, build []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		doc, err := xmlparse.ParseDocument(strings.NewReader(b.corpus.xml), xmlparse.Options{})
		if err != nil {
			return err
		}
		t1 := time.Now()
		lab, err := prime.Scheme{Opts: prime.Options{TrackOrder: true}}.New(doc)
		if err != nil {
			return err
		}
		t2 := time.Now()
		tab := rdb.Build(lab)
		tab.Plan = rdb.Extent
		tab.Warm()
		t3 := time.Now()
		parse = append(parse, t1.Sub(t0).Seconds())
		label = append(label, t2.Sub(t1).Seconds())
		build = append(build, t3.Sub(t2).Seconds())
	}
	b.set("xmlparse.parse_s", median(parse), "s")
	b.set("labeling.label_s", median(label), "s")
	b.set("rdb.build_s", median(build), "s")
	return nil
}

// coverageTail returns ops of the classes the workload's own ops lack, so
// the traced run reports a figure for every layer: relation probes, node
// queries and ordered writes (with their count queries), from the other
// workloads' generators. Layers the workload reaches are measured on the
// workload's ops alone.
func coverageTail(c *corpus, seed int64, ops []op) []op {
	var probes, writes, nodes bool
	for i := range ops {
		switch {
		case ops[i].kind == opProbe:
			probes = true
		case ops[i].kind == opWrite:
			writes = true
		case ops[i].query.Mode == api.QueryModeNodes:
			nodes = true
		}
	}
	rng := rand.New(rand.NewSource(seed + 1))
	var tail []op
	if !probes {
		tail = append(tail, probePool(c, rng, 256)...)
	}
	if !nodes {
		for _, id := range []string{"Q1", "Q3", "Q6", "Q7"} {
			for j := 0; j < 16; j++ {
				q := shapeByID(id).xpath(1+rng.Intn(replicas), 1+rng.Intn(plays), 1+rng.Intn(variants))
				tail = append(tail, queryOp(q, api.QueryModeNodes, nil))
			}
		}
	}
	if !writes {
		if p, err := orderedPlan(c, rng, 4); err == nil {
			tail = append(tail, p.ops...)
		}
	}
	return tail
}

func countSpans(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.name == name {
			n++
		}
	}
	return n
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}
