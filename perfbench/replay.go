package main

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"primelabel/internal/labeling/prime"
	"primelabel/internal/parallel"
	"primelabel/internal/rdb"
	"primelabel/internal/server"
	"primelabel/internal/server/api"
	"primelabel/internal/server/persist"
	"primelabel/internal/xmltree"
	"primelabel/internal/xpath"
)

// span is one timed call into a layer. Spans are kept in memory and
// summarized when the run ends; start and end are nanoseconds since the
// recorder's base, parent indexes the enclosing span (-1 for an op's root)
// and op is the replayed op's index.
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int32
}

// recorder collects spans. A recorder that is off records nothing, which is
// the no-op recorder the tracing-overhead comparison replays against.
type recorder struct {
	on    bool
	base  time.Time
	spans []span
	open  []int32
	op    int32
}

func newRecorder(on bool) *recorder { return &recorder{on: on, base: time.Now()} }

func (r *recorder) begin(name string) int32 {
	if !r.on {
		return -1
	}
	parent := int32(-1)
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{name: name, start: int64(time.Since(r.base)), parent: parent, op: r.op})
	i := int32(len(r.spans) - 1)
	r.open = append(r.open, i)
	return i
}

func (r *recorder) end(i int32) {
	if i < 0 {
		return
	}
	r.spans[i].end = int64(time.Since(r.base))
	r.open = r.open[:len(r.open)-1]
}

// storeLayers are the spans that sit beneath a server.Store call: the
// store's own time is its call minus these. persist.snapshot is left out
// because labeld compacts in the background, outside the request.
var storeLayers = map[string]bool{
	"xpath.parse": true, "rdb.exec": true, "xmltree.materialize": true,
	"labeling.max_label_bits": true, "labeling.ancestor": true, "labeling.parent": true,
	"labeling.before": true, "labeling.insert": true, "labeling.delete": true,
	"rdb.patch_insert": true, "rdb.patch_delete": true,
	"persist.append": true, "persist.commit": true,
}

// tally is what a replay counts besides spans, split by phase: phase 0 is
// the workload's own ops, phase 1 the coverage tail (see bench.trace).
type tally struct {
	sums       map[string]float64
	storeNs    map[opKind]int64
	storeCalls map[opKind]int
	storeSelf  int64
}

func newTally() *tally {
	return &tally{sums: map[string]float64{}, storeNs: map[opKind]int64{}, storeCalls: map[opKind]int{}}
}

// replayer re-executes a workload's requests in-process by calling each
// layer's public functions in the order labeld's store calls them, wrapping
// every call in a span. With a store attached, each op also goes through
// server.Store's public method on an identical document.
type replayer struct {
	rec       *recorder
	lab       *prime.Labeling
	table     *rdb.Table
	cache     *lru
	gen       uint64
	relabeled uint64
	anc       prime.AncestorStats

	mgr       *persist.Manager
	journal   *persist.Journal
	sinceSnap int

	store *server.Store

	phase    int
	tallies  [2]*tally
	relabels []int // per update op, in order
}

// newReplayer labels a fresh copy of the corpus. dataDir, when set, makes
// writes durable the way labeld's are (journal append and fsync per write,
// a snapshot every 1024 records); storeDir, when set, also loads an
// identical document into a durable server.Store there.
func newReplayer(c *corpus, rec *recorder, dataDir, storeDir string) (*replayer, error) {
	_, lab, err := parseAndLabel(c.xml)
	if err != nil {
		return nil, err
	}
	r := &replayer{rec: rec, lab: lab, cache: newLRU(256), tallies: [2]*tally{newTally(), newTally()}}
	lab.SetStats(&r.anc)
	r.table = rdb.Build(lab)
	r.table.Plan = rdb.Extent
	r.table.Parallelism = parallel.Workers(0)
	r.table.Warm()
	ctx := context.Background()
	if dataDir != "" {
		if r.mgr, err = persist.Open(dataDir, true); err != nil {
			return nil, err
		}
		if _, err := r.mgr.WriteSnapshot(ctx, r.meta(), lab); err != nil {
			return nil, err
		}
		if r.journal, err = r.mgr.CreateJournal(docName); err != nil {
			return nil, err
		}
	}
	if storeDir != "" {
		mgr, err := persist.Open(storeDir, true)
		if err != nil {
			return nil, err
		}
		r.store = server.NewStore(server.NewMetrics(), 256)
		r.store.EnablePersistence(mgr, 0)
		if _, err := r.store.Load(ctx, docName, loadRequest(c.xml)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *replayer) meta() persist.Meta {
	return persist.Meta{Name: docName, Planner: "extent", Generation: r.gen, Relabeled: r.relabeled}
}

func (r *replayer) close() {
	if r.journal != nil {
		r.journal.Close()
	}
	if r.store != nil {
		r.store.Close()
	}
}

func (r *replayer) sum(key string, v float64) { r.tallies[r.phase].sums[key] += v }

// apply replays one op and returns the response body labeld would send
// (writes answer without a trace ID).
func (r *replayer) apply(o *op) ([]byte, error) {
	root := r.rec.begin("op")
	var out []byte
	var err error
	switch o.kind {
	case opQuery:
		out, err = r.query(o)
	case opProbe:
		out, err = r.probe(o)
	case opWrite:
		out, err = r.write(o)
	}
	r.rec.end(root)
	if err == nil && r.store != nil {
		err = r.storeCall(o, root)
	}
	r.rec.op++
	return out, err
}

func (r *replayer) decode(o *op, v any) {
	sp := r.rec.begin("http.decode")
	err := json.Unmarshal(o.body, v)
	r.rec.end(sp)
	if err != nil {
		panic(err) // the benchmark encoded this body itself
	}
}

func (r *replayer) encode(v any) []byte {
	sp := r.rec.begin("http.encode")
	b := encode(v)
	r.rec.end(sp)
	r.sum("response_bytes", float64(len(b)))
	r.sum("responses", 1)
	return b
}

func (r *replayer) query(o *op) ([]byte, error) {
	var req api.QueryRequest
	r.decode(o, &req)
	key := req.Mode + "\x00" + req.XPath
	if resp, ok := r.cache.get(key, r.gen); ok {
		hit := *resp
		hit.Cached = true
		return r.encode(&hit), nil
	}
	sp := r.rec.begin("xpath.parse")
	q, err := xpath.Parse(req.XPath)
	r.rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.rec.begin("rdb.exec")
	rows, stats, err := r.table.ExecPathStats(q)
	r.rec.end(sp)
	if err != nil {
		return nil, err
	}
	r.sum("candidates", float64(stats.Candidates))
	r.sum("results", float64(len(rows)))
	resp := &api.QueryResponse{Generation: r.gen, Count: len(rows)}
	if req.Mode == api.QueryModeNodes {
		sp = r.rec.begin("xmltree.materialize")
		resp.Nodes = make([]api.NodeRef, len(rows))
		for i, id := range rows {
			n := r.table.Node(id)
			resp.Nodes[i] = api.NodeRef{ID: id, Path: xmltree.PathTo(n), Label: r.lab.LabelOf(n).String(), Text: n.Text()}
		}
		r.rec.end(sp)
	}
	sp = r.rec.begin("labeling.max_label_bits")
	r.lab.MaxLabelBits()
	r.rec.end(sp)
	r.cache.put(key, r.gen, resp)
	return r.encode(resp), nil
}

func (r *replayer) probe(o *op) ([]byte, error) {
	var req api.RelationRequest
	r.decode(o, &req)
	if req.A < 0 || req.A >= r.table.Len() || req.B < 0 || req.B >= r.table.Len() {
		return nil, fmt.Errorf("probe ids %d,%d out of range", req.A, req.B)
	}
	a, b := r.table.Node(req.A), r.table.Node(req.B)
	rej, u64, big := r.anc.PrefilterRejects.Load(), r.anc.ExactU64.Load(), r.anc.ExactBig.Load()
	var result bool
	var err error
	switch req.Kind {
	case api.RelAncestor:
		sp := r.rec.begin("labeling.ancestor")
		result = r.lab.IsAncestor(a, b)
		r.rec.end(sp)
	case api.RelParent:
		sp := r.rec.begin("labeling.parent")
		result = r.lab.IsParent(a, b)
		r.rec.end(sp)
	default:
		sp := r.rec.begin("labeling.before")
		result, err = r.lab.Before(a, b)
		r.rec.end(sp)
	}
	if err != nil {
		return nil, err
	}
	dRej := float64(r.anc.PrefilterRejects.Load() - rej)
	r.sum("prefilter_rejects", dRej)
	r.sum("ancestor_tests", dRej+float64(r.anc.ExactU64.Load()-u64+r.anc.ExactBig.Load()-big))
	return r.encode(api.RelationResponse{Generation: r.gen, Result: result}), nil
}

func (r *replayer) write(o *op) ([]byte, error) {
	ctx := context.Background()
	if o.upd != nil {
		var req api.UpdateRequest
		r.decode(o, &req)
		count, touched, err := r.update(req)
		if err != nil {
			return nil, err
		}
		if err := r.journalAppend(ctx, persist.Record{Gen: r.gen, Relabeled: r.relabeled, Count: count, Req: req}); err != nil {
			return nil, err
		}
		return r.encode(api.UpdateResponse{Generation: r.gen, Relabeled: count, Node: r.rowOf(touched)}), nil
	}
	var req api.BatchUpdateRequest
	r.decode(o, &req)
	resp := api.BatchUpdateResponse{Failed: -1}
	var recs []persist.OpRecord
	var touched []*xmltree.Node
	for _, u := range req.Ops {
		count, n, err := r.update(u)
		if err != nil {
			return nil, err
		}
		resp.Relabeled += count
		resp.Results = append(resp.Results, api.BatchOpResult{Relabeled: count})
		recs = append(recs, persist.OpRecord{Req: u, Count: count})
		touched = append(touched, n)
	}
	for i, n := range touched {
		resp.Results[i].Node = r.rowOf(n)
	}
	resp.Generation = r.gen
	if err := r.journalAppend(ctx, persist.Record{Gen: r.gen, Relabeled: r.relabeled, Ops: recs}); err != nil {
		return nil, err
	}
	return r.encode(resp), nil
}

func (r *replayer) rowOf(n *xmltree.Node) int {
	if n == nil {
		return -1
	}
	if id, ok := r.table.RowOf(n); ok {
		return id
	}
	return -1
}

// update applies one insert or delete the way labeld's incremental reindex
// path does: the labeling first, then the element-table patch.
func (r *replayer) update(req api.UpdateRequest) (int, *xmltree.Node, error) {
	var count int
	var touched *xmltree.Node
	switch req.Op {
	case api.OpInsert:
		if req.Parent < 0 || req.Parent >= r.table.Len() {
			return 0, nil, fmt.Errorf("insert parent %d out of range", req.Parent)
		}
		parent := r.table.Node(req.Parent)
		touched = xmltree.NewElement(req.Tag)
		sp := r.rec.begin("labeling.insert")
		n, err := r.lab.InsertChildAt(parent, rawChildIndex(parent, req.Index), touched)
		r.rec.end(sp)
		if err != nil {
			return 0, nil, err
		}
		count = n
		sp = r.rec.begin("rdb.patch_insert")
		pos, ok := r.table.InsertPos(touched)
		rank, err := r.lab.OrderOf(touched)
		if ok && err == nil {
			r.table.PatchInsert(pos, touched, rank, r.lab.SCTable().LastShift().Delta)
		}
		r.rec.end(sp)
		if !ok || err != nil {
			return 0, nil, fmt.Errorf("insert could not be patched (%v)", err)
		}
		r.sum("inserts", 1)
		r.sum("insert_relabeled", float64(count))
	case api.OpDelete:
		if req.Target <= 0 || req.Target >= r.table.Len() {
			return 0, nil, fmt.Errorf("delete target %d out of range", req.Target)
		}
		target := r.table.Node(req.Target)
		pos, _ := r.table.RowOf(target)
		sp := r.rec.begin("labeling.delete")
		err := r.lab.Delete(target)
		r.rec.end(sp)
		if err != nil {
			return 0, nil, err
		}
		sp = r.rec.begin("rdb.patch_delete")
		r.table.PatchDelete(pos, xmltree.Elements(target))
		r.rec.end(sp)
	default:
		return 0, nil, fmt.Errorf("unexpected op %q", req.Op)
	}
	r.gen++
	r.relabeled += uint64(count)
	r.relabels = append(r.relabels, count)
	return count, touched, nil
}

// journalAppend makes a write durable as labeld does: append the record,
// fsync it, and compact (snapshot, then truncate the journal) every 1024
// records. labeld compacts in the background; here it runs inline.
func (r *replayer) journalAppend(ctx context.Context, rec persist.Record) error {
	if r.journal == nil {
		return nil
	}
	sp := r.rec.begin("persist.append")
	st, err := r.journal.Append(ctx, rec)
	r.rec.end(sp)
	if err != nil {
		return err
	}
	r.sum("journal_bytes", float64(st.Bytes))
	r.sum("records", 1)
	sp = r.rec.begin("persist.commit")
	_, err = r.journal.Commit(ctx, st.Seq)
	r.rec.end(sp)
	if err != nil {
		return err
	}
	if r.sinceSnap++; r.sinceSnap >= 1024 {
		return r.compact(ctx)
	}
	return nil
}

func (r *replayer) compact(ctx context.Context) error {
	sp := r.rec.begin("persist.snapshot")
	defer r.rec.end(sp)
	if _, err := r.mgr.WriteSnapshot(ctx, r.meta(), r.lab); err != nil {
		return err
	}
	r.sinceSnap = 0
	return r.journal.Reset()
}

// storeCall sends the op through server.Store's public method and books
// the call's time, and its time minus the layer spans of the op's replay
// (root), against the store.
func (r *replayer) storeCall(o *op, root int32) error {
	ctx := context.Background()
	t := r.tallies[r.phase]
	start := time.Now()
	var err error
	switch o.kind {
	case opQuery:
		var resp *api.QueryResponse
		resp, err = r.store.QueryMode(ctx, docName, o.query.XPath, o.query.Mode, false)
		if err == nil && resp.Cached {
			t.sums["store_hits"]++
		}
	case opProbe:
		_, err = r.store.Relation(ctx, docName, *o.rel)
	case opWrite:
		if o.upd != nil {
			_, err = r.store.Update(ctx, docName, *o.upd)
		} else {
			_, err = r.store.UpdateBatch(ctx, docName, *o.batch)
		}
	}
	d := time.Since(start).Nanoseconds()
	if err != nil {
		return fmt.Errorf("store %s: %w", o.kind, err)
	}
	t.storeNs[o.kind] += d
	t.storeCalls[o.kind]++
	if root >= 0 {
		beneath := int64(0)
		for i := int(root) + 1; i < len(r.rec.spans) && r.rec.spans[i].op == r.rec.spans[root].op; i++ {
			if sp := r.rec.spans[i]; storeLayers[sp.name] {
				beneath += sp.end - sp.start
			}
		}
		t.storeSelf += d - beneath
	}
	return nil
}

// lru is the replay's stand-in for labeld's per-document query cache:
// capacity-bounded, least recently used out, entries tagged with the
// generation they were computed at.
type lru struct {
	cap   int
	order *list.List
	items map[string]*list.Element
}

type lruEntry struct {
	key  string
	gen  uint64
	resp *api.QueryResponse
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, order: list.New(), items: map[string]*list.Element{}}
}

func (c *lru) get(key string, gen uint64) (*api.QueryResponse, bool) {
	e, ok := c.items[key]
	if !ok || e.Value.(*lruEntry).gen != gen {
		return nil, false
	}
	c.order.MoveToFront(e)
	return e.Value.(*lruEntry).resp, true
}

func (c *lru) put(key string, gen uint64, resp *api.QueryResponse) {
	if e, ok := c.items[key]; ok {
		e.Value = &lruEntry{key, gen, resp}
		c.order.MoveToFront(e)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key, gen, resp})
	if c.order.Len() > c.cap {
		old := c.order.Back()
		c.order.Remove(old)
		delete(c.items, old.Value.(*lruEntry).key)
	}
}

// layerStats summarizes spans per name over one phase.
type layerStats struct {
	calls map[string]int
	ns    map[string]int64
}

func summarize(spans []span, phaseOf func(op int32) int) [2]layerStats {
	var out [2]layerStats
	for i := range out {
		out[i] = layerStats{calls: map[string]int{}, ns: map[string]int64{}}
	}
	for _, s := range spans {
		p := phaseOf(s.op)
		out[p].calls[s.name]++
		out[p].ns[s.name] += s.end - s.start
	}
	return out
}

// checkSpans verifies that every op's spans nest: children lie inside
// their parent and do not overlap, so the layers' self times plus the
// root's own (unaccounted) time add up to the op's wall time. It returns
// the number of ops that break this.
func checkSpans(spans []span) int {
	bad := 0
	children := map[int32][]span{}
	var roots []int32
	for i, s := range spans {
		if s.parent < 0 {
			roots = append(roots, int32(i))
		} else {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for _, ri := range roots {
		root := spans[ri]
		kids := children[ri]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		self := root.end - root.start
		prev := root.start
		ok := true
		for _, k := range kids {
			if k.start < prev || k.end > root.end || k.end < k.start {
				ok = false
			}
			prev = k.end
			self -= k.end - k.start
		}
		if !ok || self < 0 {
			bad++
		}
	}
	return bad
}
