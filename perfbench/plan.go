package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"primelabel/internal/datasets"
	"primelabel/internal/labeling/prime"
	"primelabel/internal/rdb"
	"primelabel/internal/server/api"
	"primelabel/internal/xmlparse"
	"primelabel/internal/xmltree"
)

// docName is the document every workload loads into labeld.
const docName = "bench"

// noteTag is the element name ordered_writes inserts. No corpus element
// carries it, so queries over the corpus vocabulary keep their answers
// while the notes come and go.
const noteTag = "note"

// maxNodeRows bounds the rows of a node-mode query in the cold pool: larger
// results are asked for in count mode, so a run's cost does not swing with
// how many big node lists its seed happened to draw.
const maxNodeRows = 64

type opKind int

const (
	opQuery opKind = iota
	opProbe
	opWrite
)

func (k opKind) String() string {
	return [...]string{"query", "probe", "write"}[k]
}

// op is one request of a workload's closed loop. Its body is encoded at
// set-up. want, when non-nil, is the exact response body the benchmark
// expects, computed in-process at set-up, so the loop checks an answer with
// one byte comparison and never decodes it. Writes carry their expected
// generation and node ids instead; their responses echo a server-generated
// trace ID and are decoded after the measured window.
type op struct {
	kind opKind
	path string // under /docs/<docName>
	body []byte
	want []byte

	// Decoded request, for the in-process replays.
	query *api.QueryRequest
	rel   *api.RelationRequest
	upd   *api.UpdateRequest
	batch *api.BatchUpdateRequest

	// Write expectations: the generation after the write and the node id
	// each op of it reports (-1 for a delete).
	wantGen   uint64
	wantNodes []int
}

// inserts is the number of insert ops the write carries.
func (o *op) inserts() int {
	var ops []api.UpdateRequest
	switch {
	case o.upd != nil:
		ops = []api.UpdateRequest{*o.upd}
	case o.batch != nil:
		ops = o.batch.Ops
	}
	n := 0
	for _, r := range ops {
		if r.Op == api.OpInsert {
			n++
		}
	}
	return n
}

// plan is a workload's whole op sequence: warm ops first, then the measured
// window.
type plan struct {
	ops  []op
	warm int
}

func (p *plan) measured() []op { return p.ops[p.warm:] }

// corpus is the benchmark document — the paper's query corpus, the
// Shakespeare stand-in replicated five times — as the XML labeld receives,
// plus an in-process copy parsed and labeled exactly as labeld does it, with
// the nested-loop prime-divisibility planner as the answer oracle.
type corpus struct {
	xml    string
	load   []byte // PUT /docs/<docName> body
	doc    *xmltree.Document
	lab    *prime.Labeling
	oracle *rdb.Table
}

// loadRequest is how the benchmark loads the corpus: the prime scheme with
// order tracking, the way labelload loads its document.
func loadRequest(xml string) api.LoadRequest {
	return api.LoadRequest{XML: xml, TrackOrder: true}
}

func newCorpus() (*corpus, error) {
	xml := datasets.Replicate(datasets.D8(), 5).String()
	load, err := json.Marshal(loadRequest(xml))
	if err != nil {
		return nil, err
	}
	doc, lab, err := parseAndLabel(xml)
	if err != nil {
		return nil, err
	}
	oracle := rdb.Build(lab)
	oracle.Plan = rdb.NestedLoop
	oracle.Warm()
	return &corpus{xml: xml, load: load, doc: doc, lab: lab, oracle: oracle}, nil
}

// parseAndLabel parses and labels xml the way labeld's store does.
func parseAndLabel(xml string) (*xmltree.Document, *prime.Labeling, error) {
	doc, err := xmlparse.ParseDocument(strings.NewReader(xml), xmlparse.Options{})
	if err != nil {
		return nil, nil, err
	}
	lab, err := prime.Scheme{Opts: prime.Options{TrackOrder: true}}.New(doc)
	if err != nil {
		return nil, nil, err
	}
	return doc, lab, nil
}

// answer evaluates q with the oracle and encodes the response labeld must
// send for it at generation gen.
func (c *corpus) answer(q, mode string, gen uint64, cached bool) ([]byte, int, error) {
	rows, err := c.oracle.ExecPathString(q)
	if err != nil {
		return nil, 0, fmt.Errorf("oracle %s: %w", q, err)
	}
	resp := api.QueryResponse{Generation: gen, Count: len(rows), Cached: cached}
	if mode == api.QueryModeNodes {
		resp.Nodes = make([]api.NodeRef, len(rows))
		for i, id := range rows {
			n := c.oracle.Node(id)
			resp.Nodes[i] = api.NodeRef{ID: id, Path: xmltree.PathTo(n), Label: c.lab.LabelOf(n).String(), Text: n.Text()}
		}
	}
	return encode(resp), len(rows), nil
}

// encode renders v exactly as labeld's writeJSON does.
func encode(v any) []byte {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		panic(err) // api types always encode
	}
	return b.Bytes()
}

func queryOp(q, mode string, want []byte) op {
	req := &api.QueryRequest{XPath: q, Mode: mode}
	body, _ := json.Marshal(req)
	return op{kind: opQuery, path: "/query", body: body, want: want, query: req}
}

// shape is one of the paper's Figure 15 query shapes (Table 2, Q1-Q9). Its
// strings start at a plays[p]/play[a] pair, so the predicates pick among the
// six full plays of each of the five corpus replicas; six of the shapes add
// a rotating positional predicate (%d in the suffix, 1 to 4). A shape thus
// has 5 x 6 = 30 strings, or 120 with the extra predicate. Every context the
// nested-loop oracle joins is a single node, which keeps the oracle cheap.
type shape struct {
	id     string
	suffix string
	mode   string
}

const (
	replicas = 5
	plays    = 6
	variants = 4
)

var shapes = []shape{
	{"Q1", "/act[%d]", api.QueryModeNodes},
	{"Q2", "/act[%d]//following::act", api.QueryModeCount},
	{"Q3", "/personae/persona", api.QueryModeNodes},
	{"Q4", "//act[%d]//following::speech", api.QueryModeCount},
	{"Q5", "//speech[%d]//preceding::line", api.QueryModeCount},
	{"Q6", "/act[%d]//line", api.QueryModeNodes},
	{"Q7", "/act[%d]//speech//following-sibling::speech[3]", api.QueryModeNodes},
	{"Q8", "//speech", api.QueryModeCount},
	{"Q9", "//line", api.QueryModeCount},
}

func shapeByID(id string) shape {
	for _, s := range shapes {
		if s.id == id {
			return s
		}
	}
	panic("unknown shape " + id)
}

func (s shape) positional() bool { return strings.Contains(s.suffix, "%d") }

// xpath returns the shape's string for replica p, play a and positional
// predicate v, all 1-based (v is ignored by shapes without one).
func (s shape) xpath(p, a, v int) string {
	suffix := s.suffix
	if s.positional() {
		suffix = fmt.Sprintf(suffix, v)
	}
	return fmt.Sprintf("//plays[%d]/play[%d]", p, a) + suffix
}

// all returns every string of the shape.
func (s shape) all() []string {
	var out []string
	for p := 1; p <= replicas; p++ {
		for a := 1; a <= plays; a++ {
			if !s.positional() {
				out = append(out, s.xpath(p, a, 0))
				continue
			}
			for v := 1; v <= variants; v++ {
				out = append(out, s.xpath(p, a, v))
			}
		}
	}
	return out
}

// coldPlan builds cold_queries: sweeps over every string of every shape in
// a seeded order. A sweep is variants sub-sweeps. Each sub-sweep holds all
// 90 strings of the three shapes without a positional predicate, at the
// same seeded places, plus a quarter of the 720 others, so a sweep asks
// 1080 queries and every shape 120 times. A string asked again is at least
// one sub-sweep (270 requests, all distinct) later, so the 256-entry query
// cache has always evicted it: every request misses. The seed only orders
// the sweep, so every seed measures the same requests. Node-mode strings
// whose answer exceeds maxNodeRows rows are asked for in count mode.
func coldPlan(c *corpus, rng *rand.Rand, sweeps int) (*plan, error) {
	var fixed, rest []op
	for _, s := range shapes {
		for _, q := range s.all() {
			mode := s.mode
			want, n, err := c.answer(q, mode, 0, false)
			if err != nil {
				return nil, err
			}
			if mode == api.QueryModeNodes && n > maxNodeRows {
				mode = api.QueryModeCount
				if want, _, err = c.answer(q, mode, 0, false); err != nil {
					return nil, err
				}
			}
			if s.positional() {
				rest = append(rest, queryOp(q, mode, want))
			} else {
				fixed = append(fixed, queryOp(q, mode, want))
			}
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	sub := len(fixed) + len(rest)/variants
	slots := rng.Perm(sub) // slots[i] < len(fixed): the fixed string placed there
	var sweep []op
	for k := 0; k < variants; k++ {
		for _, slot := range slots {
			if slot < len(fixed) {
				sweep = append(sweep, fixed[slot])
			} else {
				sweep = append(sweep, rest[0])
				rest = rest[1:]
			}
		}
	}
	const warm = 64
	p := &plan{warm: warm}
	for i := 0; i < warm+sweeps*len(sweep); i++ {
		p.ops = append(p.ops, sweep[i%len(sweep)])
	}
	return p, nil
}

// hotQueries is the number of distinct queries hot_reads keeps in the
// cache; hotProbes the size of its relation-probe pool.
const (
	hotQueries = 24
	hotProbes  = 512
)

// hotPlan builds hot_reads: hotQueries node-mode queries that all fit in the
// query cache, interleaved one to one with relation probes. Two thirds of
// the queries are full line lists of a play (Q9 in node mode, several
// hundred rows each), so re-encoding cached responses shows and a request
// costs mostly labeld CPU rather than loopback round trips, whose timing
// the machine jitters most; the other third are selective Q1, Q3, Q6 and Q7
// strings. The queries' plays and predicates are fixed and the seed picks
// their replicas (identical copies), so every seed re-encodes the same
// amount. The warm ops ask every query twice, so the measured window sees
// only cache hits.
func hotPlan(c *corpus, rng *rand.Rand, rounds int) (*plan, error) {
	var qs []string
	for _, id := range []string{"Q1", "Q3", "Q6", "Q7"} {
		for j := 0; j < 2; j++ {
			qs = append(qs, shapeByID(id).xpath(1+rng.Intn(replicas), 1+j, 1+j))
		}
	}
	// Distinct (replica, play) pairs: play 1+j%5 on replica off+j/5. Plays
	// 1-5 have 657-666 lines each (play 6 half that), so the median query
	// sits inside one group of equally large answers, not between two.
	off := rng.Intn(replicas)
	for j := 0; len(qs) < hotQueries; j++ {
		qs = append(qs, shapeByID("Q9").xpath(1+(off+j/5)%replicas, 1+j%5, 0))
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	fresh := make([]op, len(qs))
	cached := make([]op, len(qs))
	for i, q := range qs {
		for _, cc := range []bool{false, true} {
			want, _, err := c.answer(q, api.QueryModeNodes, 0, cc)
			if err != nil {
				return nil, err
			}
			if cc {
				cached[i] = queryOp(q, api.QueryModeNodes, want)
			} else {
				fresh[i] = queryOp(q, api.QueryModeNodes, want)
			}
		}
	}
	probes := probePool(c, rng, hotProbes)
	p := &plan{warm: 4 * hotQueries}
	for i := 0; i < 2*hotQueries*(2+rounds); i++ {
		if i%2 == 1 {
			p.ops = append(p.ops, probes[(i/2)%len(probes)])
			continue
		}
		q := (i / 2) % hotQueries
		if i < 2*hotQueries {
			p.ops = append(p.ops, fresh[q])
		} else {
			p.ops = append(p.ops, cached[q])
		}
	}
	return p, nil
}

// probePool draws n relation probes on seeded node pairs: half ancestor
// probes, of which half are true pairs (so the exact divisibility test runs,
// not only the prefilter), a quarter parent probes (half true) and a quarter
// document-order probes. Answers come from xmltree ancestry and document
// order, not from labels.
func probePool(c *corpus, rng *rand.Rand, n int) []op {
	rows := xmltree.Elements(c.doc.Root)
	pos := make(map[*xmltree.Node]int, len(rows))
	for i, r := range rows {
		pos[r] = i
	}
	pick := func() *xmltree.Node { return rows[1+rng.Intn(len(rows)-1)] }
	out := make([]op, 0, n)
	for i := 0; len(out) < n; i++ {
		var kind string
		var a, b *xmltree.Node
		var result bool
		switch i % 8 {
		case 0, 2: // true ancestor pair: b's ancestor at a seeded height
			kind, b = api.RelAncestor, pick()
			var ancs []*xmltree.Node
			for p := b.Parent; p != nil && p.Kind == xmltree.ElementNode; p = p.Parent {
				ancs = append(ancs, p)
			}
			a, result = ancs[rng.Intn(len(ancs))], true
		case 1, 3:
			kind = api.RelAncestor
			for a, b = pick(), pick(); a.IsAncestorOf(b); a, b = pick(), pick() {
			}
		case 4:
			kind, b = api.RelParent, pick()
			a, result = b.Parent, true
		case 6:
			kind = api.RelParent
			for a, b = pick(), pick(); b.Parent == a; a, b = pick(), pick() {
			}
		default:
			kind = api.RelBefore
			for a, b = pick(), pick(); a == b; b = pick() {
			}
			result = pos[a] < pos[b]
		}
		req := &api.RelationRequest{Kind: kind, A: pos[a], B: pos[b]}
		body, _ := json.Marshal(req)
		out = append(out, op{kind: opProbe, path: "/relation", body: body, rel: req,
			want: encode(api.RelationResponse{Generation: 0, Result: result})})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// writeCycle is the number of writes in one ordered_writes cycle; every
// write is followed by one count query.
const writeCycle = 8

// orderedPlan builds ordered_writes, the paper's Figure 18 order-sensitive
// updates, by simulating every write on a plain copy of the tree to learn
// the node ids each request must name and the answers that follow. The warm
// ops insert 16 leaves (the pool later deletes draw from) and run four
// cycles; then come the measured cycles. One cycle is:
//
//	batch of 8 inserts: a note at a seeded mid-sibling position plus seven
//	  notes inside it
//	3 x (insert a leaf note at a seeded mid-sibling position,
//	     delete a seeded earlier leaf note)
//	delete the batch's subtree
//
// so the element count returns to the same value at every cycle boundary.
func orderedPlan(c *corpus, rng *rand.Rand, cycles int) (*plan, error) {
	doc, err := xmlparse.ParseDocument(strings.NewReader(c.xml), xmlparse.Options{})
	if err != nil {
		return nil, err
	}
	s := &sim{doc: doc, live: map[*xmltree.Node]bool{}}
	xmltree.WalkElements(doc.Root, func(n *xmltree.Node) bool {
		if len(n.ElementChildren()) >= 2 {
			s.parents = append(s.parents, n)
		}
		return true
	})
	// Constant count queries: corpus-vocabulary shapes whose answers notes
	// never change, on seeded replicas. The oracle answers them once.
	var consts []string
	for j, id := range []string{"Q8", "Q9", "Q8", "Q9"} {
		consts = append(consts, shapeByID(id).xpath(1+rng.Intn(replicas), 1+j, 0))
	}
	constCount := make(map[string]int, len(consts))
	for _, q := range consts {
		_, n, err := c.answer(q, api.QueryModeCount, 0, false)
		if err != nil {
			return nil, err
		}
		constCount[q] = n
	}
	// Every cycle makes four mid-sibling inserts: the batch's root and three
	// leaves.
	s.stratify(rng, 16+4*(4+cycles))
	p := &plan{}
	k := 0
	follow := func() {
		var q string
		var n int
		switch k % writeCycle {
		case 0, 4:
			q, n = "//note", len(s.live)
		case 2:
			q, n = "//speech/note", s.count(func(x *xmltree.Node) bool { return x.Parent.Name == "speech" })
		case 6:
			q, n = "//scene//note", s.count(func(x *xmltree.Node) bool { return hasAncestor(x, "scene") })
		default:
			q = consts[(k/2)%len(consts)]
			n = constCount[q]
		}
		k++
		p.ops = append(p.ops, queryOp(q, api.QueryModeCount,
			encode(api.QueryResponse{Generation: s.gen, Count: n})))
	}
	for i := 0; i < 16; i++ {
		p.ops = append(p.ops, s.single(s.insertLeaf(rng)))
		follow()
	}
	for cyc := 0; cyc < 4+cycles; cyc++ {
		if cyc == 4 {
			p.warm = len(p.ops)
		}
		p.ops = append(p.ops, s.subtree(rng))
		follow()
		for j := 0; j < 3; j++ {
			p.ops = append(p.ops, s.single(s.insertLeaf(rng)))
			follow()
			p.ops = append(p.ops, s.single(s.deleteLeaf(rng)))
			follow()
		}
		p.ops = append(p.ops, s.single(s.deleteSubtree(rng)))
		follow()
	}
	return p, nil
}

// sim mirrors ordered_writes on a plain tree. Node ids are document-order
// element positions, found by walking the tree.
type sim struct {
	doc     *xmltree.Document
	parents []*xmltree.Node // corpus elements with at least two element children
	draws   []*xmltree.Node // seeded parents for the mid-sibling inserts to come
	leaves  []*xmltree.Node // live single-inserted notes
	subs    []*xmltree.Node // live batch subtree roots
	live    map[*xmltree.Node]bool
	gen     uint64
}

func (s *sim) row(n *xmltree.Node) int {
	i, found := 0, -1
	xmltree.WalkElements(s.doc.Root, func(m *xmltree.Node) bool {
		if m == n {
			found = i
			return false
		}
		i++
		return true
	})
	return found
}

func (s *sim) count(keep func(*xmltree.Node) bool) int {
	n := 0
	for x := range s.live {
		if keep(x) {
			n++
		}
	}
	return n
}

func hasAncestor(n *xmltree.Node, tag string) bool {
	for p := n.Parent; p != nil; p = p.Parent {
		if p.Name == tag {
			return true
		}
	}
	return false
}

// insert applies an insert of a new note as the idx-th element child of
// parent and returns the request and the new node.
func (s *sim) insert(parent *xmltree.Node, idx int) (api.UpdateRequest, *xmltree.Node) {
	req := api.UpdateRequest{Op: api.OpInsert, Parent: s.row(parent), Index: idx, Tag: noteTag}
	n := xmltree.NewElement(noteTag)
	if err := parent.InsertChildAt(rawChildIndex(parent, idx), n); err != nil {
		panic(err) // the simulation only builds valid inserts
	}
	s.live[n] = true
	s.gen++
	return req, n
}

// midSibling takes the next seeded parent and draws an index strictly
// between two of its element children.
func (s *sim) midSibling(rng *rand.Rand) (*xmltree.Node, int) {
	p := s.draws[0]
	s.draws = s.draws[1:]
	return p, 1 + rng.Intn(len(p.ElementChildren())-1)
}

// stratify fills draws with n parents, one drawn at random from each of n
// equal document-order slices of the candidates, in seeded order. An
// insert's relabel cost grows with the nodes after it, so stratified
// positions keep a run's total cost nearly the same for every seed.
func (s *sim) stratify(rng *rand.Rand, n int) {
	s.draws = make([]*xmltree.Node, n)
	for i := range s.draws {
		lo, hi := i*len(s.parents)/n, (i+1)*len(s.parents)/n
		s.draws[i] = s.parents[lo+rng.Intn(hi-lo)]
	}
	rng.Shuffle(n, func(i, j int) { s.draws[i], s.draws[j] = s.draws[j], s.draws[i] })
}

func (s *sim) insertLeaf(rng *rand.Rand) (api.UpdateRequest, *xmltree.Node) {
	req, n := s.insert(s.midSibling(rng))
	s.leaves = append(s.leaves, n)
	return req, n
}

func (s *sim) remove(n *xmltree.Node) api.UpdateRequest {
	req := api.UpdateRequest{Op: api.OpDelete, Target: s.row(n)}
	xmltree.WalkElements(n, func(m *xmltree.Node) bool {
		delete(s.live, m)
		return true
	})
	n.Detach()
	s.gen++
	return req
}

func (s *sim) deleteLeaf(rng *rand.Rand) (api.UpdateRequest, *xmltree.Node) {
	i := rng.Intn(len(s.leaves))
	n := s.leaves[i]
	s.leaves = append(s.leaves[:i], s.leaves[i+1:]...)
	return s.remove(n), nil
}

func (s *sim) deleteSubtree(rng *rand.Rand) (api.UpdateRequest, *xmltree.Node) {
	i := rng.Intn(len(s.subs))
	n := s.subs[i]
	s.subs = append(s.subs[:i], s.subs[i+1:]...)
	return s.remove(n), nil
}

// single wraps one simulated update as a write op.
func (s *sim) single(req api.UpdateRequest, n *xmltree.Node) op {
	node := -1
	if n != nil {
		node = s.row(n)
	}
	r := req
	body, _ := json.Marshal(&r)
	return op{kind: opWrite, path: "/update", body: body, upd: &r, wantGen: s.gen, wantNodes: []int{node}}
}

// subtree builds the cycle's 8-insert batch: a note at a mid-sibling
// position, then seven notes inserted between its existing children.
func (s *sim) subtree(rng *rand.Rand) op {
	req, root := s.insert(s.midSibling(rng))
	ops := []api.UpdateRequest{req}
	nodes := []*xmltree.Node{root}
	for j := 1; j < 8; j++ {
		r, n := s.insert(root, len(root.ElementChildren())/2)
		ops = append(ops, r)
		nodes = append(nodes, n)
	}
	s.subs = append(s.subs, root)
	b := &api.BatchUpdateRequest{Ops: ops}
	body, _ := json.Marshal(b)
	o := op{kind: opWrite, path: "/update/batch", body: body, batch: b, wantGen: s.gen}
	for _, n := range nodes {
		o.wantNodes = append(o.wantNodes, s.row(n))
	}
	return o
}

// rawChildIndex maps an index among element children to an index among all
// children, as labeld does for insert requests.
func rawChildIndex(parent *xmltree.Node, elemIdx int) int {
	if elemIdx <= 0 {
		return 0
	}
	seen := 0
	for i, c := range parent.Children {
		if c.Kind != xmltree.ElementNode {
			continue
		}
		seen++
		if seen == elemIdx {
			return i + 1
		}
	}
	return len(parent.Children)
}
